package dt

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Dataset is a labeled training multiset of feature vectors, each with a
// class label in [0, NumLabels). Rows enter only through Add and Ingest.
//
// A row whose features and label equal, bit for bit, a row already present
// is stored once: the dataset keeps each distinct row once with its count,
// and the tree builder sees it once with that count. The training sets this
// package serves are mostly repeats — consecutive decisions of similar
// schedules reach the same feature vector — so a fit walks a few hundred
// distinct rows rather than thousands, and a repeat costs a count. A split
// depends only on the node's row multiset, so the tree is the one every row
// would have grown. A new row is copied into storage the dataset owns, so a
// caller may reuse the slice it passed.
type Dataset struct {
	// FeatureNames names each feature, for rendering and debugging.
	FeatureNames []string
	// NumLabels is the size of the label domain.
	NumLabels int

	// distinct holds each distinct (row, label) once, in first-seen order.
	distinct rowGroups
	// n is the number of rows added, repeats included.
	n int
	// codes is the coded form of a prefix of the distinct rows (see
	// valueCodes). Ingest keeps it current; Train codes whatever Add left.
	// It is a pure function of the distinct rows in order, so how a dataset
	// was filled never shows in the tree.
	codes valueCodes
}

// Add adds a labeled instance, copying x if no equal row is present.
func (d *Dataset) Add(x []float64, y int) {
	if rows := d.distinct.rows; len(rows) > 0 && len(x) != len(rows[0]) {
		panic(fmt.Sprintf("dt: instance has %d features, dataset has %d", len(x), len(rows[0])))
	}
	if y < 0 || y >= d.NumLabels {
		panic(fmt.Sprintf("dt: label %d outside [0,%d)", y, d.NumLabels))
	}
	d.distinct.add(x, y)
	d.n++
}

// Ingest adds a batch of labeled instances. It is the streaming entry
// point for pipelined dataset construction — the trainer folds each solved
// sample generation into the dataset while later generations are still
// searching — and is defined as exactly Add row by row: same validation,
// same copies, same order, so a dataset built from streamed batches is
// identical to one built by a single post-hoc loop. Ingest also codes the
// batch's new distinct rows for the tree builder, work Train would
// otherwise do after the last batch. The caller may reuse X's rows once
// Ingest returns.
func (d *Dataset) Ingest(X [][]float64, Y []int) {
	if len(X) != len(Y) {
		panic(fmt.Sprintf("dt: Ingest with %d rows and %d labels", len(X), len(Y)))
	}
	for i, x := range X {
		d.Add(x, Y[i])
	}
	d.encode()
}

// Len returns the number of instances, repeats included.
func (d *Dataset) Len() int { return d.n }

// rowGroups numbers the distinct (row, label) pairs of a dataset, groups,
// in first-seen order, and counts how many times each was added.
type rowGroups struct {
	// rows[g] is group g's copy of its row, y[g] its label and n[g] its
	// count.
	rows [][]float64
	y    []int32
	n    []int32
	// slots is an open-addressing index over the groups, linear probing.
	// Its length is a power of two at least twice the group count.
	slots []groupSlot
	// free is the unused tail of the chunk new rows are copied into.
	free []float64
}

// groupSlot files one group under the low 32 bits of its hashRow; group is
// the group's number plus one, 0 in an empty slot. Keeping the hash in the
// slot settles most probes without touching the group's row.
type groupSlot struct {
	hash  uint32
	group int32
}

// add counts one (x, y) into its group, opening the group if it is new.
func (g *rowGroups) add(x []float64, y int) {
	if 2*(len(g.rows)+1) > len(g.slots) {
		g.regrow()
	}
	h := uint32(hashRow(x, y))
	mask := uint32(len(g.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := g.slots[i]
		if s.group == 0 {
			g.slots[i] = groupSlot{hash: h, group: int32(len(g.rows) + 1)}
			g.insert(x, y)
			return
		}
		if k := s.group - 1; s.hash == h && int(g.y[k]) == y && sameBits(g.rows[k], x) {
			g.n[k]++
			return
		}
	}
}

// insert opens a group for (x, y) with a copy of x.
func (g *rowGroups) insert(x []float64, y int) {
	w := len(x)
	if len(g.free) < w {
		// Chunks grow with the group count up to 256 rows, so a small set
		// wastes little and a large one allocates rarely; a chunk is never
		// reallocated, since earlier groups' rows alias it.
		g.free = make([]float64, min(max(len(g.rows), 16), 256)*w)
	}
	row := g.free[:w:w]
	copy(row, x)
	g.free = g.free[w:]
	g.rows = appendDoubling(g.rows, row)
	g.y = appendDoubling(g.y, int32(y))
	g.n = appendDoubling(g.n, 1)
}

// regrow doubles the index and re-files every group.
func (g *rowGroups) regrow() {
	old := g.slots
	g.slots = make([]groupSlot, max(2*len(old), 64))
	mask := uint32(len(g.slots) - 1)
	for _, s := range old {
		if s.group == 0 {
			continue
		}
		i := s.hash & mask
		for g.slots[i].group != 0 {
			i = (i + 1) & mask
		}
		g.slots[i] = s
	}
}

// appendDoubling is append with capacity doubling: append grows large
// slices by about 1.25×, which for a slice filled one element at a time
// allocates about five times its final size, doubling about twice.
func appendDoubling[E any](s []E, e E) []E {
	if len(s) == cap(s) {
		s = slices.Grow(s, max(cap(s), 8))
	}
	return append(s, e)
}

// hashRow hashes a row's feature bits and its label. The rotation carries
// each value's sign and exponent bits — all that distinguishes the small
// integers and flags most features hold — down to where the multiply
// spreads them; the murmur3 finalizer mixes the low bits the index reads.
func hashRow(x []float64, y int) uint64 {
	h := uint64(y)
	for _, v := range x {
		h = bits.RotateLeft64(h^math.Float64bits(v), 29) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// sameBits reports whether two rows of equal width hold the same bits.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
