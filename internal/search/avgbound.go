package search

import (
	"math"
	"sort"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
)

// averageBound lower-bounds the future start-up fees plus the final penalty
// for the Average goal. Like packingBound, it exists to break the tie
// plateau where every penalty-free completion differs only in VM counts:
// without it A* must expand essentially every packing whose f omits the
// start-up fees the completion will inevitably pay.
//
// The bound relaxes the remaining problem to classical multiprocessor total
// completion time: with M parallel machines, the minimum achievable sum of
// completion times of the remaining queries is the round-robin SPT value
// Σ l_(i) × ⌈i/M⌉ over latencies sorted descending (each query's latency is
// relaxed to its fastest execution time, machine ready times to zero). With
// k new VMs (plus the open VM if one exists) the final average latency is
// then at least (sum + minSumC(M)) / nTotal, so
//
//	extra(k) = k × minStartup + rate × max(0, (sum+minSumC(M))/nTotal − D)
//
// never overestimates, and extra is unimodal in k (minSumC is convex
// decreasing), so a ternary search finds min_k extra(k).
//
// The descending latency vector is never materialized: it is a sequence of
// per-template runs (templates visited in precomputed descending minLat
// order, each contributing Unassigned[t] equal latencies), and the
// positional weights Σ⌊i/m⌋ over a run have a closed form — the bound
// evaluates in O(templates) per k with zero allocations.
func (s *Searcher) averageBound(st *graph.State, goal sla.Average, remaining int) float64 {
	nDone, sum, ok := sla.MeanState(st.Acc)
	if !ok {
		return 0
	}
	nTotal := nDone + remaining
	openVMs := 0
	if st.OpenType != graph.NoVM {
		openVMs = 1
	}
	kLow := 0
	if openVMs == 0 {
		kLow = 1
	}
	extra := func(k int) float64 {
		m := k + openVMs
		avg := (sum + s.roundRobinSumC(st, m)) / time.Duration(nTotal)
		cost := float64(k) * s.minStartup
		if avg > goal.Deadline {
			cost += (avg - goal.Deadline).Seconds() * goal.Rate
		}
		return cost
	}
	lo, hi := kLow, remaining
	for hi-lo > 2 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		if extra(m1) <= extra(m2) {
			hi = m2
		} else {
			lo = m1
		}
	}
	best := math.Inf(1)
	for k := lo; k <= hi; k++ {
		if c := extra(k); c < best {
			best = c
		}
	}
	return best
}

// roundRobinSumC returns Σ l_(i) × (⌊i/m⌋+1) over the state's remaining
// execution latencies sorted descending — the round-robin SPT completion
// sum on m machines — without materializing the latency vector. Positions
// [pos, pos+c) all carry template t's fastest latency, so each template
// contributes l_t × (c + Σ_{i=pos}^{pos+c-1} ⌊i/m⌋) with the inner sum in
// closed form.
func (s *Searcher) roundRobinSumC(st *graph.State, m int) time.Duration {
	var sumC time.Duration
	pos := 0
	for _, t := range s.latOrderDesc {
		c := st.Unassigned[t]
		if c == 0 {
			continue
		}
		blocks := floorDivSum(pos+c, m) - floorDivSum(pos, m)
		sumC += s.minLat[t] * time.Duration(c+blocks)
		pos += c
	}
	return sumC
}

// floorDivSum returns Σ_{i=0}^{n-1} ⌊i/m⌋.
func floorDivSum(n, m int) int {
	q, r := n/m, n%m
	return m*q*(q-1)/2 + q*r
}

// initLatOrder precomputes template indices sorted by descending minimum
// latency, used by averageBound and percentileBound.
func (s *Searcher) initLatOrder() {
	s.latOrderDesc = make([]int, len(s.minLat))
	for i := range s.latOrderDesc {
		s.latOrderDesc[i] = i
	}
	sort.Slice(s.latOrderDesc, func(a, b int) bool {
		return s.minLat[s.latOrderDesc[a]] > s.minLat[s.latOrderDesc[b]]
	})
}

// percentileBound lower-bounds future start-up fees plus final penalty for
// the Percentile goal, breaking the same fee tie plateau averageBound does
// for Average.
//
// With nTotal final queries and rank = ⌈percent·nTotal⌉, a schedule incurs
// no penalty only if at most B = nTotal − rank queries exceed the deadline.
// Already a = |above| assigned queries exceed it, so at least
// q = remaining − (B − a) future queries must finish within the deadline.
// Their total work is at least W', the sum of the q smallest future
// execution latencies. With k new VMs (M machines total) and the open VM's
// residual room, fitting them within deadline+δ requires
// W' ≤ room0 + k·deadline + (M+1)·δ, so the percentile overage δ is at
// least (W' − room0 − k·deadline)/(M+1):
//
//	extra(k) = k × minStartup + rate × max(0, spill_k/(M+1))
//
// The bound takes the best k, which no completion can beat. Scratch (the
// big-item vector) is drawn from the search arena; steady state allocates
// nothing.
func (s *Searcher) percentileBound(ar *arena, st *graph.State, goal sla.Percentile, remaining int) float64 {
	below, above, ok := sla.PctState(st.Acc)
	if !ok {
		return 0
	}
	nTotal := below + len(above) + remaining
	rank := goal.Rank(nTotal)
	budget := nTotal - rank - len(above) // future queries allowed over deadline
	mustFit := remaining
	if budget > 0 {
		mustFit -= budget
	}
	openVMs := 0
	room0 := time.Duration(0)
	if st.OpenType != graph.NoVM {
		openVMs = 1
		if goal.Deadline > st.Wait {
			room0 = goal.Deadline - st.Wait
		}
	}
	kLow := 1 - openVMs
	if mustFit <= 0 {
		return float64(kLow) * s.minStartup
	}
	// W': total work of the mustFit smallest future execution latencies.
	// latOrderDesc is descending, so take from the tail.
	var work time.Duration
	taken := 0
	for i := len(s.latOrderDesc) - 1; i >= 0 && taken < mustFit; i-- {
		t := s.latOrderDesc[i]
		c := st.Unassigned[t]
		if c > mustFit-taken {
			c = mustFit - taken
		}
		work += time.Duration(c) * s.minLat[t]
		taken += c
	}
	// Pigeonhole refinement: two must-fit items longer than half the
	// deadline cannot share a machine penalty-free. With fewer machines
	// than big items, the two smallest bigs bound the forced overage.
	ar.bigs = s.collectBigs(ar.bigs[:0], st, mustFit, goal.Deadline)
	bigs := ar.bigs
	openBig := 0
	if openVMs == 1 && len(bigs) > 0 && st.Wait+bigs[0] <= goal.Deadline {
		openBig = 1
	}
	best := math.Inf(1)
	for k := kLow; k <= remaining; k++ {
		m := k + openVMs
		cost := float64(k) * s.minStartup
		pen := 0.0
		if spill := work - room0 - time.Duration(k)*goal.Deadline; spill > 0 {
			pen = goal.Rate * (spill / time.Duration(m+1)).Seconds()
		}
		crowded := len(bigs) >= 2 && len(bigs) > k+openBig
		if crowded {
			if over := bigs[0] + bigs[1] - goal.Deadline; over > 0 {
				if p := goal.Rate * over.Seconds(); p > pen {
					pen = p
				}
			}
		}
		cost += pen
		if cost < best {
			best = cost
		} else if !crowded {
			// Fees plus the spill term are convex in k, so past their
			// minimum fees dominate. The pigeonhole term is a plateau
			// that drops to zero once every big item has a machine, so
			// the scan must not stop while it still applies.
			break
		}
	}
	return best
}

// collectBigs appends, ascending, the execution latencies greater than half
// the deadline among the `mustFit` smallest future queries to buf.
func (s *Searcher) collectBigs(buf []time.Duration, st *graph.State, mustFit int, deadline time.Duration) []time.Duration {
	half := deadline / 2
	taken := 0
	for i := len(s.latOrderDesc) - 1; i >= 0 && taken < mustFit; i-- {
		t := s.latOrderDesc[i]
		c := st.Unassigned[t]
		if c > mustFit-taken {
			c = mustFit - taken
		}
		taken += c
		if s.minLat[t] > half {
			for j := 0; j < c; j++ {
				buf = append(buf, s.minLat[t])
			}
		}
	}
	return buf
}
