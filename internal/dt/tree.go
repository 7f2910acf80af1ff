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

// Dataset is a labeled training set: X[i] is a feature vector, Y[i] its
// class label in [0, NumLabels). Rows are append-only and retained: a row
// handed to the dataset must not be modified afterwards.
type Dataset struct {
	// FeatureNames names each column of X, for rendering and debugging.
	FeatureNames []string
	// X holds one row per training instance.
	X [][]float64
	// Y holds the class label of each row.
	Y []int
	// NumLabels is the size of the label domain.
	NumLabels int

	// codes is the coded form of a prefix of X (see valueCodes). Ingest
	// keeps it current; Train codes whatever rows Add or direct appends
	// left uncoded. It is a pure function of the rows in order, so how a
	// dataset was filled never shows in the tree.
	codes valueCodes
}

// Add appends a labeled instance.
func (d *Dataset) Add(x []float64, y int) {
	if len(d.X) > 0 && len(x) != len(d.X[0]) {
		panic(fmt.Sprintf("dt: instance has %d features, dataset has %d", len(x), len(d.X[0])))
	}
	if y < 0 || y >= d.NumLabels {
		panic(fmt.Sprintf("dt: label %d outside [0,%d)", y, d.NumLabels))
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Ingest appends a batch of labeled instances. It is the streaming entry
// point for pipelined dataset construction — the trainer folds each solved
// sample generation into the dataset while later generations are still
// searching — and is defined as exactly Add row by row: same validation,
// same final order, so a dataset built from streamed batches is identical
// to one built by a single post-hoc loop. Ingest also codes the batch for
// the tree builder, work Train would otherwise do after the last batch.
func (d *Dataset) Ingest(X [][]float64, Y []int) {
	if len(X) != len(Y) {
		panic(fmt.Sprintf("dt: Ingest with %d rows and %d labels", len(X), len(Y)))
	}
	// Grow geometrically, not to the exact need: a training run ingests
	// one small batch per optimal path, and exact growth would reallocate
	// the whole dataset on every batch (quadratic in the row count).
	if need := len(d.X) + len(X); cap(d.X) < need {
		newCap := 2 * cap(d.X)
		if newCap < need {
			newCap = need
		}
		grown := make([][]float64, len(d.X), newCap)
		copy(grown, d.X)
		d.X = grown
		grownY := make([]int, len(d.Y), newCap)
		copy(grownY, d.Y)
		d.Y = grownY
	}
	for i, x := range X {
		d.Add(x, Y[i])
	}
	d.encode()
}

// Reserve makes room for rows more instances of len(FeatureNames) features,
// rows and codes both, so a trainer that knows a bound on its row count
// ingests every batch without the dataset regrowing. Nothing a reader of
// the dataset sees changes.
func (d *Dataset) Reserve(rows int) {
	d.X = slices.Grow(d.X, rows)
	d.Y = slices.Grow(d.Y, rows)
	d.codes.cells = slices.Grow(d.codes.cells, rows*len(d.FeatureNames))
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.X) }

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

// Train fits a decision tree to the dataset. Training is deterministic:
// ties between splits are broken by feature index, then threshold. Train
// completes the dataset's value coding, so one dataset must not be trained
// from two goroutines at once.
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
	rows := make([]int32, ds.Len())
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

// builder grows one tree. A feature the dataset coded (see valueCodes) is
// split-searched from a count table — rows per value, and per value and
// label — that one pass over the node's rows fills for all coded features
// at once; a wide feature is searched by sorting the node's (value, label)
// pairs. Both searches visit exactly the boundaries between consecutive
// distinct values present in the node, in ascending value order, with the
// label counts of the rows on either side — the only things the chosen
// split depends on — so which one runs, and the order of rows inside a
// node, are unobservable.
type builder struct {
	ds   *Dataset
	cfg  Config
	cols []column
	// cells is the dataset's row-major code matrix, stride len(cols).
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

// valueLabel is one row of a node projected onto a single feature.
type valueLabel struct {
	v float64
	y int32
}

func newBuilder(ds *Dataset, cfg Config) *builder {
	ds.encode()
	b := &builder{
		ds:     ds,
		cfg:    cfg,
		cols:   ds.codes.cols,
		cells:  ds.codes.cells,
		off:    make([]int, len(ds.codes.cols)),
		width:  1 + ds.NumLabels,
		counts: make([]int, ds.NumLabels),
		moved:  make([]int32, 0, ds.Len()),
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

// build grows a subtree over rows, which it is free to reorder.
func (b *builder) build(rows []int32, depth int) *Node {
	counts := b.counts
	clear(counts)
	for _, i := range rows {
		counts[b.ds.Y[i]]++
	}
	label, labelCount := majority(counts)
	node := &Node{Label: label, n: len(rows), errs: len(rows) - labelCount}
	if labelCount == len(rows) || len(rows) < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		node.Leaf = true
		return node
	}
	feature, threshold, ok := b.bestSplit(rows, counts)
	if !ok {
		node.Leaf = true
		return node
	}
	// Stable partition of the one row list: rows stay in ascending index
	// order, so every later pass walks the code matrix forwards.
	moved := b.moved[:0]
	nLeft := 0
	for _, i := range rows {
		if b.ds.X[i][feature] < threshold {
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
func (b *builder) bestSplit(rows []int32, counts []int) (feature int, threshold float64, ok bool) {
	table, off, width, coded, stride := b.table, b.off, b.width, b.coded, len(b.cols)
	for _, i := range rows {
		row := b.cells[int(i)*stride : (int(i)+1)*stride]
		y := b.ds.Y[i]
		for _, f := range coded {
			bin := table[off[f]+int(row[f])*width:]
			bin[0]++
			bin[1+y]++
		}
	}

	s := &b.search
	s.begin(counts, len(rows))
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
		pairs = append(pairs, valueLabel{v: b.ds.X[i][f], y: int32(b.ds.Y[i])})
	}
	b.pairs = pairs
	slices.SortFunc(pairs, func(a, c valueLabel) int { return cmp.Compare(a.v, c.v) })
	for j := 0; j < len(pairs)-1; j++ {
		s.left[pairs[j].y]++
		s.right[pairs[j].y]--
		if v, next := pairs[j].v, pairs[j+1].v; v != next {
			s.consider(f, v, next, j+1)
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
