package search

import (
	"math"
	"math/bits"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
)

// Exact cost arithmetic for monotonic goals.
//
// A search of a monotonic goal (Max, PerQuery) prices every edge on a fixed
// binary grid of 2^-gridBits cents: start-up fees and processing costs are
// rounded to it once, when the Searcher is built, and a penalty is rounded
// to it when it is charged. A float64 carries 53 significant bits, so every
// sum of grid values below 2^(53-gridBits) = 131072 cents is exact and does
// not depend on the order of summation: a path cost, a cached suffix cost,
// a Closed.G entry and Reuse.OldCost are the same number whichever search
// reached them by whichever route. The heuristic is assembled from the same
// rounded components (cheapest processing cost, cheapest start-up fee, the
// same penalty function), so it never exceeds the rounded cost of any
// completion — admissible exactly, not up to float noise — and the
// canonical search compares f-values for equality. Its result is then the
// lexicographically least minimum-cost schedule: a pure function of
// (problem, workload).
//
// Average and Percentile searches keep the unrounded float arithmetic and
// its eps tolerance; nothing here touches them.
const gridBits = 36

const (
	gridScale = 1 << gridBits
	gridUnit  = 1.0 / gridScale
)

// toGrid rounds a cost in cents to the nearest grid value. Scaling by a
// power of two is exact, so the only rounding is math.Round's.
func toGrid(x float64) float64 { return math.Round(x*gridScale) * gridUnit }

// onGrid reports whether x is a grid value the exact arithmetic could have
// produced. Costs decoded from a checkpoint written by the float arithmetic
// this replaced are (save for coincidences that are then also exact) not.
func onGrid(x float64) bool {
	u := x * gridScale
	return u == math.Trunc(u) && math.Abs(u) < 1<<53
}

// exactTables holds what a monotonic-goal search prices edges and bounds
// with: per-template deadlines, the penalty rate as a ratio of integers,
// and the static parts of the assignment bound.
type exactTables struct {
	deadline []time.Duration
	// rateNum / rateDen is the penalty rate in grid units per nanosecond
	// of violation: the goal's rate rounded once, to more bits than a
	// float64 holds (see initExact).
	rateNum, rateDen uint64
	// firstCost[t] is the least a query of template t costs as the first
	// query of a new VM: start-up fee + processing + penalty at its own
	// latency, minimized over VM types.
	firstCost []float64
	// assign reports that the assignment bound can exceed Eq. 3 at some
	// state of this problem, and relief says at which: relief[t] is the
	// set of templates (bit t' set) short enough, on the fastest VM type
	// that runs t at its cheapest, for a query of t queued right behind
	// one of them to still meet its deadline. See penalisable.
	assign bool
	relief []uint64
}

// initExact fills the exact tables for a Max or PerQuery goal.
func (s *Searcher) initExact() {
	k := len(s.prob.Env.Templates)
	x := &s.exact
	x.deadline = make([]time.Duration, k)
	rate := 0.0
	switch goal := s.prob.Goal.(type) {
	case sla.MaxLatency:
		rate = goal.Rate
		for t := range x.deadline {
			x.deadline[t] = goal.Deadline
		}
	case sla.PerQuery:
		rate = goal.Rate
		for t := range x.deadline {
			x.deadline[t] = goal.Deadline(t)
		}
	default:
		panic("search: exact arithmetic requires a Max or PerQuery goal")
	}
	// rate cents/s = rate × 2^gridBits × 2^shift grid units per 2^shift ×
	// 1e9 ns. Scaling by a power of two is exact, so the larger the shift
	// the less Round discards; 27 leaves the rounding below a float64's
	// resolution for every rate that is not absurdly small, and the
	// denominator below 2^57.
	x.rateDen = uint64(time.Second)
	if units := rate * gridScale; units > 0 {
		for shift := 0; shift < 27 && units*2 < 1<<63; shift++ {
			units *= 2
			x.rateDen *= 2
		}
		x.rateNum = uint64(math.Round(math.Min(units, 1<<63)))
	}
	x.firstCost = make([]float64, k)
	x.relief = make([]uint64, k)
	for t := range x.firstCost {
		best, cheapest := math.Inf(1), -1
		for vt := 0; vt < s.nv; vt++ {
			lat := s.lat[t*s.nv+vt]
			if lat < 0 {
				continue
			}
			exec := s.exec[t*s.nv+vt]
			if c := s.startup[vt] + exec + s.penalty(t, lat); c < best {
				best = c
			}
			if exec == s.minCost[t] && (cheapest < 0 || lat < s.lat[t*s.nv+cheapest]) {
				cheapest = vt
			}
		}
		x.firstCost[t] = best
		// A query is charged more than its cheapest processing cost only
		// if, on every VM type that offers that cost — the fastest of them
		// stands for all — it finishes late even right behind the shortest
		// query still unassigned. Templates past the 64th are left out of
		// every relief set, which only ever evaluates the bound in vain.
		slack := x.deadline[t] - s.lat[t*s.nv+cheapest]
		for u := 0; u < k && u < 64; u++ {
			if lat := s.lat[u*s.nv+cheapest]; lat >= 0 && lat <= slack {
				x.relief[t] |= 1 << u
			}
		}
		// While t itself is unassigned it is its own candidate
		// predecessor: if that suffices, the bound never beats Eq. 3 on
		// t's account.
		if t >= 64 || x.relief[t]&(1<<t) == 0 {
			x.assign = true
		}
	}
}

// penalisable reports whether the assignment bound can exceed Eq. 3 at a
// state with these unassigned counts: whether some unassigned template has
// no unassigned template in its relief set. Where it cannot, every query's
// term of the bound is its cheapest processing cost and the bound is not
// evaluated.
func (x *exactTables) penalisable(unassigned []int) bool {
	var left uint64
	for t, c := range unassigned {
		if c != 0 && t < 64 {
			left |= 1 << t
		}
	}
	for t, c := range unassigned {
		if c != 0 && x.relief[t]&left == 0 {
			return true
		}
	}
	return false
}

// overagePenalty is the penalty of a violation period in cents, on the
// grid: ⌈ov × rate⌉ in grid units, in integer arithmetic (saturating where
// the quotient would not fit 64 bits). Rounding up a linear function makes
// it monotone and subadditive — P(a) + P(b) ≥ P(a+b) — which is what lets
// packingBound charge the summed violation of several queries as one
// period.
func (s *Searcher) overagePenalty(ov time.Duration) float64 {
	hi, lo := bits.Mul64(uint64(ov), s.exact.rateNum)
	if hi >= s.exact.rateDen {
		return float64(math.MaxUint64) * gridUnit
	}
	q, r := bits.Div64(hi, lo, s.exact.rateDen)
	if r != 0 {
		q++
	}
	return float64(q) * gridUnit
}

// penalty is the grid penalty of one query of template t completing at the
// given latency.
func (s *Searcher) penalty(t int, completion time.Duration) float64 {
	if ov := completion - s.exact.deadline[t]; ov > 0 {
		return s.overagePenalty(ov)
	}
	return 0
}

// edgeCost returns the weight of the edge a out of st as this searcher
// prices it: for monotonic goals the grid weight (rounded start-up fee, or
// rounded processing cost plus grid penalty), otherwise the problem's own
// float weight. ok is false if the edge does not exist.
func (s *Searcher) edgeCost(st *graph.State, a graph.Action) (cost float64, ok bool) {
	if a.Kind == graph.Startup {
		return s.startup[a.VMType], true
	}
	if !s.gridded {
		return s.prob.PlacementCost(st, a.Template)
	}
	t := a.Template
	if t < 0 || t >= len(st.Unassigned) || st.Unassigned[t] == 0 || st.OpenType == graph.NoVM {
		return 0, false
	}
	i := t*s.nv + st.OpenType
	lat := s.lat[i]
	if lat < 0 {
		return 0, false
	}
	return s.exec[i] + s.penalty(t, st.Wait+lat), true
}

// assignmentBound lower-bounds the whole cost-to-go of a monotonic,
// decomposable goal by pricing every unassigned query on its own. In any
// completion a query of template t ends up in exactly one of three places,
// and costs at least:
//
//   - first on a new VM of some type: that VM's start-up fee (charged to
//     its first query — every rented VM gets one, by reduction 1) plus
//     processing plus the penalty at its own latency: firstCost[t];
//   - later on a VM of type vt, new or open: processing plus the penalty at
//     its latency plus the shortest latency any still-unassigned query has
//     on vt (something runs before it, and nothing shorter is left);
//   - next on the open VM: processing plus the penalty at Wait plus its
//     latency — with no start-up fee, so this can undercut both, but only
//     one query takes that slot: it is granted once, to the template it
//     saves the most.
//
// Every term is a grid value built from the tables the edges are priced
// with and the penalty is monotone in the completion time, so the bound
// never exceeds the grid cost of any completion. It subsumes Eq. 3 (each
// term is at least the cheapest processing cost) but not packingBound,
// which sees start-up fees the second case does not; the heuristic takes
// the larger of the two.
func (s *Searcher) assignmentBound(ar *arena, st *graph.State) float64 {
	nv := s.nv
	if cap(ar.bigs) < nv {
		ar.bigs = make([]time.Duration, nv)
	}
	minPred := ar.bigs[:nv]
	for vt := range minPred {
		minPred[vt] = math.MaxInt64
	}
	for t, c := range st.Unassigned {
		if c == 0 {
			continue
		}
		for vt, lat := range s.lat[t*nv : (t+1)*nv] {
			if lat >= 0 && lat < minPred[vt] {
				minPred[vt] = lat
			}
		}
	}
	total, discount := 0.0, 0.0
	for t, c := range st.Unassigned {
		if c == 0 {
			continue
		}
		b := s.exact.firstCost[t]
		for vt, lat := range s.lat[t*nv : (t+1)*nv] {
			if lat < 0 {
				continue
			}
			if later := s.exec[t*nv+vt] + s.penalty(t, lat+minPred[vt]); later < b {
				b = later
			}
		}
		total += float64(c) * b
		if st.OpenType == graph.NoVM {
			continue
		}
		if lat := s.lat[t*nv+st.OpenType]; lat >= 0 {
			next := s.exec[t*nv+st.OpenType] + s.penalty(t, st.Wait+lat)
			if d := b - next; d > discount {
				discount = d
			}
		}
	}
	return total - discount
}
