// Package dt implements the decision-tree classifier WiSeDB learns its
// workload-management models with (§4.5). The paper uses Weka's J48, an
// implementation of C4.5; this package reproduces the relevant subset from
// scratch: binary splits on numeric features (booleans are encoded 0/1),
// split selection by information gain ratio, and C4.5-style pessimistic
// error pruning.
//
// Trees map feature vectors extracted from scheduling-graph vertices (§4.4)
// to actions (place a template / rent a VM type); see Figure 6 of the paper
// for the intended shape.
package dt

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Node is a decision-tree node. Internal nodes test x[Feature] < Threshold
// and descend Left on true, Right on false. Leaves predict Label.
type Node struct {
	Leaf      bool
	Label     int
	Feature   int
	Threshold float64
	Left      *Node
	Right     *Node
	// n and errs carry the training distribution used by pruning:
	// instances reaching the node and instances misclassified by the
	// node's majority label.
	n    int
	errs int
}

// Tree is a trained decision-tree classifier.
type Tree struct {
	Root         *Node
	FeatureNames []string
	NumLabels    int
}

// Config tunes training.
type Config struct {
	// MinLeaf is the minimum number of instances in a leaf (J48's -M,
	// default 2).
	MinLeaf int
	// MaxDepth bounds tree depth; 0 means unlimited.
	MaxDepth int
	// Prune enables C4.5 pessimistic error pruning (on by default in
	// J48); confidence is PruneConfidence (J48's -C, default 0.25).
	Prune           bool
	PruneConfidence float64
}

// DefaultConfig mirrors J48's defaults.
func DefaultConfig() Config {
	return Config{MinLeaf: 2, MaxDepth: 0, Prune: true, PruneConfidence: 0.25}
}

// Train fits a decision tree to the dataset, walking each distinct row once
// with its count. Training is deterministic: ties between splits are broken
// by feature index, then threshold. Train completes the dataset's value
// coding, so one dataset must not be trained from two goroutines at once.
func Train(ds *Dataset, cfg Config) *Tree {
	if ds.Len() == 0 {
		panic("dt: Train on empty dataset")
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	if cfg.PruneConfidence <= 0 {
		cfg.PruneConfidence = 0.25
	}
	rows := make([]int32, len(ds.distinct.rows))
	for i := range rows {
		rows[i] = int32(i)
	}
	root := newBuilder(ds, cfg).build(rows, 0)
	if cfg.Prune {
		z := normalUpperQuantile(cfg.PruneConfidence)
		pruneNode(root, z)
	}
	return &Tree{Root: root, FeatureNames: ds.FeatureNames, NumLabels: ds.NumLabels}
}

// Predict returns the class label for a feature vector.
func (t *Tree) Predict(x []float64) int {
	n := t.Root
	for !n.Leaf {
		if x[n.Feature] < n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// Height returns the height of the tree (a single leaf has height 1).
func (t *Tree) Height() int { return height(t.Root) }

func height(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	l, r := height(n.Left), height(n.Right)
	if l > r {
		return 1 + l
	}
	return 1 + r
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.Leaf {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Dump renders the tree in an indented text form resembling the paper's
// Figure 6. labelName maps class labels to action names.
func (t *Tree) Dump(labelName func(int) string) string {
	var b strings.Builder
	dumpNode(&b, t.Root, t.FeatureNames, labelName, 0)
	return b.String()
}

func dumpNode(b *strings.Builder, n *Node, features []string, labelName func(int) string, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.Leaf {
		fmt.Fprintf(b, "%s=> %s (n=%d)\n", indent, labelName(n.Label), n.n)
		return
	}
	name := fmt.Sprintf("f%d", n.Feature)
	if n.Feature < len(features) {
		name = features[n.Feature]
	}
	fmt.Fprintf(b, "%s%s < %.4g?\n", indent, name, n.Threshold)
	dumpNode(b, n.Left, features, labelName, depth+1)
	dumpNode(b, n.Right, features, labelName, depth+1)
}

// builder grows one tree over the dataset's distinct rows: a node holds a
// list of distinct rows, and every count it takes — rows reaching it, rows
// per label, per value, on either side of a boundary — adds each distinct
// row's multiplicity, so the counts are those of every row. A feature the
// dataset coded (see valueCodes) is split-searched from a count table —
// rows per value, and per value and label — that one pass over the node's
// distinct rows fills for all coded features at once; a wide feature is
// searched by sorting the node's (value, label, count) triples. Both
// searches visit exactly the boundaries between consecutive distinct values
// present in the node, in ascending value order, with the label counts of
// the rows on either side — the only things the chosen split depends on —
// so which one runs, the order of rows inside a node, and how many of them
// repeat are unobservable.
type builder struct {
	cfg Config
	// Distinct row i is x[i], with label y[i] and count w[i].
	x    [][]float64
	y    []int32
	w    []int32
	cols []column
	// cells is the distinct rows' row-major code matrix, stride len(cols).
	cells []uint16
	// table holds the count tables of all coded features back to back.
	// Feature f's bin for a code is the width = 1+NumLabels counters at
	// table[off[f]+code*width]: the rows holding the value, then those rows
	// by label. It is all zero between nodes: the scan that reads a bin
	// clears it.
	table []int32
	off   []int
	width int
	// coded lists the coded features, ascending.
	coded []int
	// Scratch reused across nodes; the build is depth-first and a node is
	// done with all of it before its children start.
	counts []int
	pairs  []valueLabel
	moved  []int32
	search splitSearch
}

// valueLabel is one distinct row of a node projected onto a single feature,
// with the row's label and count.
type valueLabel struct {
	v    float64
	y, w int32
}

func newBuilder(ds *Dataset, cfg Config) *builder {
	ds.encode()
	b := &builder{
		cfg:    cfg,
		x:      ds.distinct.rows,
		y:      ds.distinct.y,
		w:      ds.distinct.n,
		cols:   ds.codes.cols,
		cells:  ds.codes.cells,
		off:    make([]int, len(ds.codes.cols)),
		width:  1 + ds.NumLabels,
		counts: make([]int, ds.NumLabels),
		moved:  make([]int32, 0, len(ds.distinct.rows)),
		search: splitSearch{
			minLeaf: cfg.MinLeaf,
			left:    make([]int, ds.NumLabels),
			right:   make([]int, ds.NumLabels),
		},
	}
	size := 0
	for f := range b.cols {
		b.off[f] = size
		if !b.cols[f].wide {
			b.coded = append(b.coded, f)
			size += b.cols[f].bins() * b.width
		}
	}
	b.table = make([]int32, size)
	return b
}

// build grows a subtree over the distinct rows listed in rows, which it is
// free to reorder.
func (b *builder) build(rows []int32, depth int) *Node {
	counts := b.counts
	clear(counts)
	for _, i := range rows {
		counts[b.y[i]] += int(b.w[i])
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	label, labelCount := majority(counts)
	node := &Node{Label: label, n: n, errs: n - labelCount}
	if labelCount == n || n < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		node.Leaf = true
		return node
	}
	feature, threshold, ok := b.bestSplit(rows, counts, n)
	if !ok {
		node.Leaf = true
		return node
	}
	// Stable partition of the one row list: rows stay in ascending index
	// order, so every later pass walks the code matrix forwards. A coded
	// feature's value is read through its code, which stays in the code
	// matrix and the column's small table rather than the row storage.
	moved := b.moved[:0]
	nLeft := 0
	col, stride := &b.cols[feature], len(b.cols)
	for _, i := range rows {
		var v float64
		if col.wide {
			v = b.x[i][feature]
		} else {
			v = col.vals[b.cells[int(i)*stride+feature]]
		}
		if v < threshold {
			rows[nLeft] = i
			nLeft++
		} else {
			moved = append(moved, i)
		}
	}
	copy(rows[nLeft:], moved)
	node.Feature = feature
	node.Threshold = threshold
	node.Left = b.build(rows[:nLeft], depth+1)
	node.Right = b.build(rows[nLeft:], depth+1)
	return node
}

// bestSplit finds the (feature, threshold) with the highest gain ratio
// among splits with positive information gain that respect MinLeaf. Ties
// are broken toward the lower feature index (features scan in order and a
// later candidate must beat the incumbent by more than 1e-12).
func (b *builder) bestSplit(rows []int32, counts []int, n int) (feature int, threshold float64, ok bool) {
	table, off, width, coded, stride := b.table, b.off, b.width, b.coded, len(b.cols)
	for _, i := range rows {
		row := b.cells[int(i)*stride : (int(i)+1)*stride]
		y, w := b.y[i], b.w[i]
		for _, f := range coded {
			bin := table[off[f]+int(row[f])*width:]
			bin[0] += w
			bin[1+y] += w
		}
	}

	s := &b.search
	s.begin(counts, n)
	for f := range b.cols {
		s.beginFeature(counts)
		if b.cols[f].wide {
			b.scanSorted(f, rows)
		} else {
			b.scanBins(f)
		}
	}
	return s.feature, s.threshold, s.ok
}

// scanBins offers the search every boundary of coded feature f from its
// count table, visiting bins in ascending value order and skipping the
// ones the node left empty. Each bin is cleared as it is read.
func (b *builder) scanBins(f int) {
	s := &b.search
	col := &b.cols[f]
	table, width := b.table[b.off[f]:], b.width
	prev := -1 // rank of the last non-empty bin
	nLeft := 0
	for rank, code := range col.sortedCodes {
		bin := table[int(code)*width:][:width]
		n := int(bin[0])
		if n == 0 {
			continue
		}
		if prev >= 0 {
			s.consider(f, col.sortedVals[prev], col.sortedVals[rank], nLeft)
		}
		for l, c := range bin[1:] {
			s.left[l] += int(c)
			s.right[l] -= int(c)
		}
		clear(bin)
		nLeft += n
		prev = rank
	}
}

// scanSorted offers the search every boundary of wide feature f by sorting
// the node's values, so a node pays for its own rows and never for the
// feature's distinct values elsewhere in the dataset.
func (b *builder) scanSorted(f int, rows []int32) {
	s := &b.search
	pairs := b.pairs[:0]
	for _, i := range rows {
		pairs = append(pairs, valueLabel{v: b.x[i][f], y: b.y[i], w: b.w[i]})
	}
	b.pairs = pairs
	slices.SortFunc(pairs, func(a, c valueLabel) int { return cmp.Compare(a.v, c.v) })
	nLeft := 0
	for j, p := range pairs[:len(pairs)-1] {
		s.left[p.y] += int(p.w)
		s.right[p.y] -= int(p.w)
		nLeft += int(p.w)
		if next := pairs[j+1].v; p.v != next {
			s.consider(f, p.v, next, nLeft)
		}
	}
}

// splitSearch is the running best split of one node. left and right are the
// label counts on either side of the boundary being offered; the scans
// maintain them.
type splitSearch struct {
	minLeaf     int
	n           int
	base        float64
	left, right []int

	bestRatio float64
	feature   int
	threshold float64
	ok        bool
}

func (s *splitSearch) begin(counts []int, n int) {
	s.n = n
	s.base = entropy(counts, n)
	s.bestRatio, s.feature, s.threshold, s.ok = 0, 0, 0, false
}

func (s *splitSearch) beginFeature(counts []int) {
	clear(s.left)
	copy(s.right, counts)
}

// consider offers the boundary between consecutive distinct values v < next
// of feature f, with nLeft rows at or below v.
func (s *splitSearch) consider(f int, v, next float64, nLeft int) {
	n := s.n
	nRight := n - nLeft
	if nLeft < s.minLeaf || nRight < s.minLeaf {
		return
	}
	pl := float64(nLeft) / float64(n)
	gain := s.base - pl*entropy(s.left, nLeft) - (1-pl)*entropy(s.right, nRight)
	if gain <= 1e-12 {
		return
	}
	splitInfo := -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
	if splitInfo <= 1e-12 {
		return
	}
	ratio := gain / splitInfo
	if ratio > s.bestRatio+1e-12 {
		s.bestRatio = ratio
		s.feature = f
		s.threshold = midpoint(v, next)
		s.ok = true
	}
}

// midpoint returns a threshold strictly between a and b (a < b), robust to
// the large sentinel values used for "infinite cost" features.
func midpoint(a, b float64) float64 {
	m := a + (b-a)/2
	if m <= a { // adjacent floats
		m = b
	}
	return m
}

func majority(counts []int) (label, count int) {
	for l, c := range counts {
		if c > count {
			label, count = l, c
		}
	}
	return label, count
}

func entropy(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	e := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		e -= p * math.Log2(p)
	}
	return e
}
