package sla

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// Accumulator tracks the penalty of a growing schedule incrementally. The
// scheduling-graph search charges each placement edge the penalty delta
// p(R, v_s) − p(R, u_s) (Eq. 2); accumulators compute those deltas in O(1)
// or O(n) without re-deriving the whole schedule, and expose exactly the
// penalty-relevant summary of schedule history for state deduplication.
//
// Accumulators are immutable: Add returns a new accumulator.
type Accumulator interface {
	// Penalty returns p(R, S) in cents for the queries added so far.
	Penalty() float64
	// Add returns a new accumulator with one more completed query of the
	// given template and latency.
	Add(templateID int, latency time.Duration) Accumulator
	// PeekAdd returns Add(templateID, latency).Penalty() without
	// allocating the successor accumulator. Placement-edge weights and
	// the cost-of-X feature evaluate many hypothetical additions per
	// state; PeekAdd keeps them O(log n) even for distribution-based
	// goals.
	PeekAdd(templateID int, latency time.Duration) float64
	// AppendSignature appends a canonical encoding of the accumulator's
	// penalty-relevant state to buf. Two search states whose accumulators
	// produce identical signatures (and that otherwise agree) have
	// identical future costs.
	AppendSignature(buf []byte) []byte
}

// NewAccumulator returns an empty accumulator for the goal. It panics for a
// goal outside the four families: the search bounds, persistence and the
// serving heuristics all switch on them, so another goal needs each of those
// taught first.
func NewAccumulator(g Goal) Accumulator {
	switch goal := g.(type) {
	case MaxLatency, PerQuery:
		// The interface conversion reuses g's boxed value.
		return decompAcc{one: g.(SingleQueryPenalty)}
	case Average:
		return meanAcc{goal: &goal}
	case Percentile:
		return pctAcc{goal: &goal}
	}
	panic(fmt.Sprintf("sla: no accumulator for goal %s (%T)", g.Name(), g))
}

// decompAcc handles decomposable goals (PerQuery, Max): the penalty is a sum
// of independent per-query penalties, so only the running total matters and
// the deduplication signature is empty (history cannot affect future
// penalties).
type decompAcc struct {
	one     SingleQueryPenalty
	penalty float64
}

func (a decompAcc) Penalty() float64 { return a.penalty }

func (a decompAcc) Add(templateID int, latency time.Duration) Accumulator {
	a.add(templateID, latency)
	return a
}

// add advances the accumulator in place; Add and Tracker share it.
func (a *decompAcc) add(templateID int, latency time.Duration) {
	a.penalty += a.one.PenaltyOne(templateID, latency)
}

func (a decompAcc) PeekAdd(templateID int, latency time.Duration) float64 {
	return a.penalty + a.one.PenaltyOne(templateID, latency)
}

func (a decompAcc) AppendSignature(buf []byte) []byte { return buf }

// meanAcc handles the Average goal: the penalty depends only on the count
// and sum of latencies.
type meanAcc struct {
	goal *Average // shared by every successor: Add boxes three words
	n    int
	sum  time.Duration
}

func (a meanAcc) Penalty() float64 { return a.penaltyOf(a.n, a.sum) }

// penaltyOf is the goal's penalty for a workload of n latencies summing to
// sum.
func (a meanAcc) penaltyOf(n int, sum time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return a.goal.PenaltyMean(sum / time.Duration(n))
}

func (a meanAcc) Add(templateID int, latency time.Duration) Accumulator {
	a.add(latency)
	return a
}

// add advances the accumulator in place; Add and Tracker share it.
func (a *meanAcc) add(latency time.Duration) {
	a.n++
	a.sum += latency
}

func (a meanAcc) PeekAdd(templateID int, latency time.Duration) float64 {
	return a.penaltyOf(a.n+1, a.sum+latency)
}

func (a meanAcc) AppendSignature(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(a.n))
	return binary.AppendVarint(buf, int64(a.sum/time.Millisecond))
}

// pctAcc is the Percentile accumulator. The percentile penalty depends on
// the latency multiset only through (a) how many latencies meet the
// deadline and (b) the sorted latencies exceeding it: all values at or
// under the deadline are interchangeable. Collapsing them keeps Add cheap
// and — crucially — lets the A* search merge the huge families of states
// that differ only in sub-deadline latencies.
type pctAcc struct {
	goal  *Percentile     // shared by every successor, as meanAcc's
	below int             // latencies <= deadline
	above []time.Duration // latencies > deadline, sorted ascending
}

func (a pctAcc) Penalty() float64 {
	rank := a.goal.Rank(a.below + len(a.above))
	if rank <= a.below {
		return 0
	}
	return ratePenalty(a.above[rank-a.below-1]-a.goal.Deadline, a.goal.Rate)
}

func (a pctAcc) Add(templateID int, latency time.Duration) Accumulator {
	if latency > a.goal.Deadline {
		// The parent may still be read or branched: insert into an
		// exactly-sized copy.
		a.above = append(make([]time.Duration, 0, len(a.above)+1), a.above...)
	}
	a.add(latency)
	return a
}

// add advances the accumulator in place, growing above only when its
// capacity is exhausted; Add and Tracker share it.
func (a *pctAcc) add(latency time.Duration) {
	if latency <= a.goal.Deadline {
		a.below++
		return
	}
	i, _ := slices.BinarySearch(a.above, latency)
	a.above = slices.Insert(a.above, i, latency)
}

func (a pctAcc) PeekAdd(templateID int, latency time.Duration) float64 {
	rank := a.goal.Rank(a.below + len(a.above) + 1)
	if latency <= a.goal.Deadline {
		if rank <= a.below+1 {
			return 0
		}
		return ratePenalty(a.above[rank-a.below-2]-a.goal.Deadline, a.goal.Rate)
	}
	if rank <= a.below {
		return 0
	}
	// The rank's index into above with latency virtually inserted at idx.
	p := rank - a.below - 1
	idx, _ := slices.BinarySearch(a.above, latency)
	at := latency
	switch {
	case p < idx:
		at = a.above[p]
	case p > idx:
		at = a.above[p-1]
	}
	return ratePenalty(at-a.goal.Deadline, a.goal.Rate)
}

func (a pctAcc) AppendSignature(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(a.below))
	for _, l := range a.above {
		buf = binary.AppendVarint(buf, int64(l/time.Millisecond))
	}
	return buf
}

// MeanState reports the query count and latency sum tracked by an Average
// goal's accumulator. ok is false for other accumulator kinds. The search
// uses it to couple its future-VM-count bound with the mean constraint.
func MeanState(acc Accumulator) (n int, sum time.Duration, ok bool) {
	a, isMean := acc.(meanAcc)
	if !isMean {
		return 0, 0, false
	}
	return a.n, a.sum, true
}

// PctState reports the deadline-meeting query count and the sorted
// violating latencies tracked by a Percentile goal's accumulator. ok is
// false for other accumulator kinds.
func PctState(acc Accumulator) (below int, above []time.Duration, ok bool) {
	a, isPct := acc.(pctAcc)
	if !isPct {
		return 0, nil, false
	}
	return a.below, a.above, true
}
