package sla

import "time"

// MinFinalPenalty returns an admissible lower bound on the penalty of any
// complete schedule extending a partial schedule summarized by acc, given
// that `remaining` queries are still unassigned and that the sum of their
// execution latencies is at least minFutureLat (each query's final latency
// is at least its fastest execution time; queue waits only add to it).
//
// The A* heuristic uses cost-to-go ≥ future processing cost +
// (MinFinalPenalty − acc.Penalty()); for monotonically increasing goals the
// bound equals the current penalty, recovering Eq. 3, and for Average and
// Percentile it prunes the negative-edge plateaus that the null heuristic of
// the paper leaves unexplored.
func MinFinalPenalty(g Goal, acc Accumulator, remaining int, minFutureLat time.Duration) float64 {
	switch goal := g.(type) {
	case MaxLatency, PerQuery:
		// Monotonic: the penalty never decreases (§4.3).
		return acc.Penalty()
	case Average:
		a, ok := acc.(meanAcc)
		if !ok || a.n+remaining == 0 {
			return 0
		}
		// Best case: every future query runs instantly after no wait,
		// so the final mean is at least (sum + minFutureLat) / n.
		minAvg := (a.sum + minFutureLat) / time.Duration(a.n+remaining)
		return ratePenalty(overage(minAvg, goal.Deadline), goal.Rate)
	case Percentile:
		a, ok := acc.(pctAcc)
		if !ok {
			return 0
		}
		rank := a.goal.Rank(a.below + len(a.above) + remaining)
		// Best case: every future query meets the deadline. The final
		// percentile then exceeds the deadline only if the violating
		// latencies already assigned reach down to the rank.
		idx := rank - a.below - remaining - 1
		if idx < 0 || idx >= len(a.above) {
			return 0
		}
		return ratePenalty(a.above[idx]-goal.Deadline, goal.Rate)
	default:
		return 0
	}
}

// FutureRoom returns, for monotonically increasing goals, the maximum
// penalty-free completion time ("room") any future placement can have, and
// the goal's penalty rate. Used by the search's VM-packing lower bound: a
// VM can absorb at most `room` of work before its last query's violation
// period starts growing. For PerQuery the loosest deadline among templates
// that still have unassigned instances is the admissible choice. ok is
// false for goals the bound does not apply to.
func FutureRoom(g Goal, unassigned []int) (room time.Duration, rate float64, ok bool) {
	switch goal := g.(type) {
	case MaxLatency:
		return goal.Deadline, goal.Rate, true
	case PerQuery:
		max := time.Duration(0)
		for t, c := range unassigned {
			if c == 0 {
				continue
			}
			if d := goal.Deadline(t); d > max {
				max = d
			}
		}
		return max, goal.Rate, true
	default:
		return 0, 0, false
	}
}
