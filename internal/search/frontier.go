package search

import (
	"bytes"
	"cmp"

	"wisedb/internal/graph"
)

// bucketFrontier is the search's open list: a bucket queue over quantized
// f-costs with an exact in-bucket order. The admissible bounds
// (packingBound, averageBound, percentileBound) deliberately flatten huge
// families of states onto near-identical f-values — the "tie plateaus" of
// the bounds documentation — and a single binary heap pays O(log n)
// comparisons per operation across the whole plateau. The frontier instead
// hashes each node to bucket ⌊(f − base) / quantum⌋ and keeps a small
// binary min-heap per bucket, ordered by the exact comparator
// (f, then remaining queries, as the global heap used): pops cost
// O(log bucketSize), and a monotone cursor skips drained buckets.
//
// Quantization never changes the order of distinct comparator keys: equal
// f-values land in the same bucket (the index is a deterministic function
// of f), strictly smaller f-values land in the same or an earlier bucket,
// and within a bucket the exact comparator decides. Nodes whose keys tie —
// equal (f, remaining) under the legacy comparator; canonical keys never
// tie — pop in an order the heap's layout picks, and that layout depends
// on which nodes share a bucket, so on the quantum: the non-canonical
// (Average, Percentile) searches can return different optimal schedules
// at a different quantum. The cursor moves backward when a push lands
// below it — branch-and-bound re-openings under the non-monotonic goals can
// legally decrease f — so the frontier does not rely on heuristic
// consistency. Indices above maxBucketIndex clamp into the last bucket,
// which degrades that bucket toward a plain heap but stays exact.
type bucketFrontier struct {
	base float64 // f origin of bucket 0
	inv  float64 // buckets per unit of f
	// canonical switches the in-bucket order from the legacy comparator to
	// the canonical one (f, then lexicographic action path) — see
	// nodeLessCanonical.
	canonical bool
	buckets   [][]*node
	// touched records each bucket index that went from empty to non-empty,
	// so release visits only buckets a search actually used (a bucket that
	// drains and refills appears twice; clearing is idempotent).
	touched []int32
	cursor  int // lowest possibly non-empty bucket
	size    int
}

// maxBucketIndex bounds the bucket array; higher f-values share the last
// bucket (exactly ordered by its in-bucket heap).
const maxBucketIndex = 1 << 12

// init readies the frontier for a fresh search. Buckets retained from a
// previous search (already emptied by release) keep their capacity.
func (q *bucketFrontier) init(base, quantum float64, canonical bool) {
	q.base = base
	q.inv = 1 / quantum
	q.canonical = canonical
	q.cursor = 0
	q.size = 0
}

// release empties every touched bucket, dropping node references so a
// pooled arena pins nothing, but keeps the bucket array and per-bucket
// capacity. The cost scales with the buckets a search actually used, not
// the bucket range.
func (q *bucketFrontier) release() {
	for _, idx := range q.touched {
		clear(q.buckets[idx])
		q.buckets[idx] = q.buckets[idx][:0]
	}
	q.touched = q.touched[:0]
	q.cursor = 0
	q.size = 0
}

func (q *bucketFrontier) index(f float64) int {
	idx := int((f - q.base) * q.inv)
	if idx < 0 {
		return 0
	}
	if idx > maxBucketIndex {
		return maxBucketIndex
	}
	return idx
}

// nodeLess is the exact legacy open-list order: f ascending, ties toward
// deeper states (fewer remaining queries) to reach goals sooner among equals.
func nodeLess(a, b *node) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.remaining < b.remaining
}

// nodeLessCanonical orders the open list for canonical searches: f
// ascending — compared exactly, f being a sum of cost-grid values (see
// grid.go) — then lexicographically smallest action path first. On the flat
// f-plateaus of the admissible bounds this degenerates into a leftmost
// depth-first descent — each expanded node's first child is
// lexicographically smaller than every other open node — so the canonical
// (lex-least) optimal schedule is found without enumerating the plateau.
// See the canonical-search commentary in astar.go for why this makes the
// popped schedule a pure function of (problem, workload).
//
// key is the root-to-node action path, one big-endian keyLabelBytes-wide
// graph.Action.Label per edge. Label order is actionCmp order and the width
// is fixed, so bytes.Compare of two keys is the lexicographic comparison of
// the two action sequences — a path that is a proper prefix of the other is
// the shorter byte string and orders first.
func nodeLessCanonical(a, b *node) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return bytes.Compare(a.key, b.key) < 0
}

// actionCmp is the total order on edge actions that underlies every
// canonical tie-break: placements before start-ups, then by template, then
// by VM type — the order of graph.Action.Label, which path keys encode.
// Any fixed total order works for correctness; placements-first makes the
// lex-least descent fill the open VM before renting another, so on the
// flat f-band of the packing bound the canonical path tracks a greedy
// packing and backtracks rarely. The order is stable across processes and
// releases because it reads only the action's fields.
func actionCmp(x, y graph.Action) int {
	return cmp.Or(
		cmp.Compare(y.Kind, x.Kind), // Place orders before Startup
		cmp.Compare(x.Template, y.Template),
		cmp.Compare(x.VMType, y.VMType),
	)
}

// less dispatches to the order the frontier was initialized with.
func (q *bucketFrontier) less(a, b *node) bool {
	if q.canonical {
		return nodeLessCanonical(a, b)
	}
	return nodeLess(a, b)
}

func (q *bucketFrontier) push(n *node) {
	idx := q.index(n.f)
	for idx >= len(q.buckets) {
		q.buckets = append(q.buckets, nil)
	}
	if len(q.buckets[idx]) == 0 {
		q.touched = append(q.touched, int32(idx))
	}
	b := append(q.buckets[idx], n)
	// Sift up.
	i := len(b) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(b[i], b[p]) {
			break
		}
		b[i], b[p] = b[p], b[i]
		i = p
	}
	q.buckets[idx] = b
	if idx < q.cursor {
		q.cursor = idx
	}
	q.size++
}

// pop removes and returns the minimum node under nodeLess, or nil when the
// frontier is empty.
func (q *bucketFrontier) pop() *node {
	for q.cursor < len(q.buckets) && len(q.buckets[q.cursor]) == 0 {
		q.cursor++
	}
	if q.cursor >= len(q.buckets) {
		return nil
	}
	b := q.buckets[q.cursor]
	n := b[0]
	last := len(b) - 1
	b[0] = b[last]
	b[last] = nil
	b = b[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(b) && q.less(b[l], b[min]) {
			min = l
		}
		if r < len(b) && q.less(b[r], b[min]) {
			min = r
		}
		if min == i {
			break
		}
		b[i], b[min] = b[min], b[i]
		i = min
	}
	q.buckets[q.cursor] = b
	q.size--
	return n
}
