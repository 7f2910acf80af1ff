package dt

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func datasetFrom(x [][]float64, y []int, numLabels int) *Dataset {
	ds := &Dataset{NumLabels: numLabels}
	for i := range x {
		ds.Add(x[i], y[i])
	}
	return ds
}

// checkRows fails unless ds holds exactly the rows x with labels y: each
// distinct (row, label), equal bit for bit, once in first-seen order with
// the number of times it was added, and Len counting every row.
func checkRows(t *testing.T, what string, ds *Dataset, x [][]float64, y []int) {
	t.Helper()
	if ds.Len() != len(x) {
		t.Fatalf("%s: %d rows, want %d", what, ds.Len(), len(x))
	}
	group := map[string]int{}
	var rows [][]float64
	var labels, counts []int32
	for i, row := range x {
		key := fmt.Sprint(y[i], rowBits(row))
		g, ok := group[key]
		if !ok {
			g = len(rows)
			group[key] = g
			rows, labels, counts = append(rows, row), append(labels, int32(y[i])), append(counts, 0)
		}
		counts[g]++
	}
	d := &ds.distinct
	if len(d.rows) != len(rows) {
		t.Fatalf("%s: %d distinct rows, want %d", what, len(d.rows), len(rows))
	}
	for g, row := range rows {
		if !slices.Equal(rowBits(d.rows[g]), rowBits(row)) || d.y[g] != labels[g] || d.n[g] != counts[g] {
			t.Fatalf("%s: distinct row %d is %v/%d ×%d, want %v/%d ×%d", what, g, d.rows[g], d.y[g], d.n[g], row, labels[g], counts[g])
		}
	}
}

// rowBits returns a row's values as their bit patterns.
func rowBits(row []float64) []uint64 {
	bits := make([]uint64, len(row))
	for i, v := range row {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// A linearly separable problem must be learned exactly.
func TestTrainSeparable(t *testing.T) {
	var x [][]float64
	var y []int
	for i := 0; i < 50; i++ {
		v := float64(i)
		x = append(x, []float64{v, -v})
		label := 0
		if v >= 25 {
			label = 1
		}
		y = append(y, label)
	}
	tree := Train(datasetFrom(x, y, 2), DefaultConfig())
	for i := range x {
		if got := tree.Predict(x[i]); got != y[i] {
			t.Fatalf("x=%v: want %d, got %d", x[i], y[i], got)
		}
	}
	if h := tree.Height(); h != 2 {
		t.Fatalf("separable problem should yield a single split, height=%d", h)
	}
}

// XOR needs two levels of splits; a single split cannot express it. Note a
// perfectly class-balanced XOR has zero information gain at the root (C4.5
// cannot split it either), so this uses sampled points whose sampling
// imbalance makes the gain positive, as in any real training set.
func TestTrainXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	var x [][]float64
	var y []int
	for i := 0; i < 500; i++ {
		a, b := rng.Float64(), rng.Float64()
		label := 0
		if (a < 0.5) != (b < 0.5) {
			label = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	tree := Train(datasetFrom(x, y, 2), Config{MinLeaf: 1, Prune: false})
	correct := 0
	for i := range x {
		if tree.Predict(x[i]) == y[i] {
			correct++
		}
	}
	if correct < len(x)*98/100 {
		t.Fatalf("xor: %d/%d correct", correct, len(x))
	}
	if tree.Height() < 3 {
		t.Fatalf("xor requires nested splits, height=%d", tree.Height())
	}
}

// Pruning must never grow the tree and must keep training accuracy on a
// noiseless separable problem.
func TestPruneShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		v := rng.Float64()
		label := 0
		if v > 0.5 {
			label = 1
		}
		if rng.Float64() < 0.15 { // label noise to give pruning work
			label = 1 - label
		}
		x = append(x, []float64{v, rng.Float64()})
		y = append(y, label)
	}
	unpruned := Train(datasetFrom(x, y, 2), Config{MinLeaf: 2, Prune: false})
	pruned := Train(datasetFrom(x, y, 2), Config{MinLeaf: 2, Prune: true})
	if pruned.NumNodes() > unpruned.NumNodes() {
		t.Fatalf("pruned tree has %d nodes, unpruned %d", pruned.NumNodes(), unpruned.NumNodes())
	}
	// The dominant structure (the 0.5 split) must survive pruning.
	correct := 0
	for i := 0; i < 200; i++ {
		v := rng.Float64()
		want := 0
		if v > 0.5 {
			want = 1
		}
		if pruned.Predict([]float64{v, rng.Float64()}) == want {
			correct++
		}
	}
	if correct < 180 {
		t.Fatalf("pruned tree generalizes poorly: %d/200", correct)
	}
}

// Training must be deterministic.
func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		x = append(x, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y = append(y, rng.Intn(3))
	}
	t1 := Train(datasetFrom(x, y, 3), DefaultConfig())
	t2 := Train(datasetFrom(x, y, 3), DefaultConfig())
	if t1.Dump(labelNum) != t2.Dump(labelNum) {
		t.Fatal("two trainings on identical data produced different trees")
	}
}

func labelNum(l int) string { return fmt.Sprintf("L%d", l) }

// Property: every prediction is a valid label, and leaves always carry the
// majority class of some training subset (so predictions are labels seen in
// training).
func TestPredictAlwaysValidLabel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		labels := 2 + rng.Intn(4)
		ds := &Dataset{NumLabels: labels}
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			y := rng.Intn(labels)
			seen[y] = true
			ds.Add([]float64{rng.NormFloat64(), rng.NormFloat64()}, y)
		}
		tree := Train(ds, DefaultConfig())
		for i := 0; i < 50; i++ {
			got := tree.Predict([]float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3})
			if got < 0 || got >= labels || !seen[got] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: MinLeaf is respected by every internal split.
func TestMinLeafRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ds := &Dataset{NumLabels: 2}
	for i := 0; i < 500; i++ {
		ds.Add([]float64{rng.Float64()}, rng.Intn(2))
	}
	for _, minLeaf := range []int{1, 5, 25} {
		tree := Train(ds, Config{MinLeaf: minLeaf, Prune: false})
		var check func(n *Node)
		check = func(n *Node) {
			if n.Leaf {
				if n.n < minLeaf {
					t.Fatalf("minLeaf=%d: leaf with %d instances", minLeaf, n.n)
				}
				return
			}
			check(n.Left)
			check(n.Right)
		}
		check(tree.Root)
	}
}

// MaxDepth must bound the height.
func TestMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := &Dataset{NumLabels: 2}
	for i := 0; i < 1000; i++ {
		ds.Add([]float64{rng.Float64(), rng.Float64()}, rng.Intn(2))
	}
	for _, d := range []int{1, 3, 5} {
		tree := Train(ds, Config{MinLeaf: 1, MaxDepth: d, Prune: false})
		if h := tree.Height(); h > d+1 {
			t.Fatalf("MaxDepth=%d: height %d", d, h)
		}
	}
}

// The paper's features include "infinite" costs encoded as a large
// sentinel; splits must handle them without producing NaN thresholds.
func TestLargeSentinelValues(t *testing.T) {
	const inf = 1e12
	ds := &Dataset{NumLabels: 2}
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			ds.Add([]float64{inf}, 1)
		} else {
			ds.Add([]float64{float64(i)}, 0)
		}
	}
	tree := Train(ds, DefaultConfig())
	if got := tree.Predict([]float64{inf}); got != 1 {
		t.Fatalf("want class 1 for sentinel, got %d", got)
	}
	if got := tree.Predict([]float64{5}); got != 0 {
		t.Fatalf("want class 0 for finite, got %d", got)
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			return
		}
		if !n.Leaf && (math.IsNaN(n.Threshold) || math.IsInf(n.Threshold, 0)) {
			t.Fatalf("non-finite threshold %v", n.Threshold)
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tree.Root)
}

// Single-class datasets must yield a single leaf.
func TestSingleClass(t *testing.T) {
	ds := &Dataset{NumLabels: 3}
	for i := 0; i < 10; i++ {
		ds.Add([]float64{float64(i)}, 2)
	}
	tree := Train(ds, DefaultConfig())
	if !tree.Root.Leaf || tree.Root.Label != 2 {
		t.Fatalf("want single leaf predicting 2, got %s", tree.Dump(labelNum))
	}
}

// The inverse normal CDF must roundtrip against the forward CDF.
func TestInverseNormalCDF(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.25, 0.5, 0.75, 0.99, 0.999} {
		z := inverseNormalCDF(p)
		got := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		if math.Abs(got-p) > 1e-8 {
			t.Fatalf("p=%g: forward(inverse)=%g", p, got)
		}
	}
	if z := normalUpperQuantile(0.25); math.Abs(z-0.6744897) > 1e-5 {
		t.Fatalf("upper quantile at 0.25: %g", z)
	}
}

// Pessimistic error estimates must increase with z and stay within [errs, n].
func TestPessimisticErrors(t *testing.T) {
	for _, n := range []int{1, 10, 100} {
		for errs := 0; errs <= n; errs += n/4 + 1 {
			e1 := pessimisticErrors(n, errs, 0.25)
			e2 := pessimisticErrors(n, errs, 1.5)
			if e2 < e1 {
				t.Fatalf("n=%d errs=%d: estimate decreased with z", n, errs)
			}
			if e1 < float64(errs)-1e-9 || e2 > float64(n)+1e-9 {
				t.Fatalf("n=%d errs=%d: estimates out of range: %g, %g", n, errs, e1, e2)
			}
		}
	}
}

// Ingest must be exactly Add row by row: any batch partition of the rows
// yields the same dataset and therefore the same trained tree — the
// invariant the pipelined trainer's streamed generations rely on.
func TestIngestEquivalentToAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, feats, labels := 200, 4, 5
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, feats)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		y[i] = rng.Intn(labels)
	}
	want := datasetFrom(x, y, labels)

	for _, batch := range []int{1, 7, 32, n, n + 50} {
		got := &Dataset{NumLabels: labels}
		for lo := 0; lo < n; lo += batch {
			hi := lo + batch
			if hi > n {
				hi = n
			}
			got.Ingest(x[lo:hi], y[lo:hi])
		}
		checkRows(t, fmt.Sprintf("batch=%d", batch), got, x, y)
		a := Train(want, DefaultConfig())
		b := Train(got, DefaultConfig())
		name := func(l int) string { return fmt.Sprintf("L%d", l) }
		if a.Dump(name) != b.Dump(name) {
			t.Fatalf("batch=%d: trained trees differ", batch)
		}
	}
}

// Ingest must reject mismatched batches and invalid rows like Add does.
func TestIngestValidation(t *testing.T) {
	ds := &Dataset{NumLabels: 2}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("row/label mismatch", func() { ds.Ingest([][]float64{{1}}, nil) })
	ds.Ingest([][]float64{{1, 2}}, []int{0})
	mustPanic("feature width", func() { ds.Ingest([][]float64{{1}}, []int{1}) })
	mustPanic("label range", func() { ds.Ingest([][]float64{{3, 4}}, []int{2}) })
	if ds.Len() != 1 {
		t.Fatalf("dataset has %d rows, want 1", ds.Len())
	}
}

// shapedDataset draws rows shaped like the scheduling features the tree is
// trained on: a wait quantized to minutes, then per template a k/m
// proportion, a 0/1 flag, a cost that is either a small sum of latencies or
// the 1e18 "cannot run" sentinel, and another flag — 21 columns for five
// templates, labelled by a noisy rule over them. With special set it
// appends the columns a builder gets wrong first: a constant, an affine
// copy of the wait column (equal gain at every boundary, so the tie must go
// to the lower index), and a continuous column with more than
// maxDistinctBuckets distinct values; and it repeats some rows under a
// different label.
func shapedDataset(rng *rand.Rand, n int, special bool) (x [][]float64, y []int, numLabels int) {
	const templates = 5
	numLabels = templates + 2
	for len(x) < n {
		row := make([]float64, 0, 1+4*templates+3)
		wait := float64(60 * rng.Intn(16))
		row = append(row, wait)
		best, bestCost := -1, math.Inf(1)
		for t := 0; t < templates; t++ {
			m := 1 + rng.Intn(12)
			k := rng.Intn(m + 1)
			supports := float64(rng.Intn(2))
			cost := 1e18
			if supports == 1 {
				cost = 0.0866*float64(t+1) + 60*float64(rng.Intn(4+2*t))
			}
			row = append(row, float64(k)/float64(m), supports, cost, float64(min(k, 1)))
			if k > 0 && cost < bestCost {
				best, bestCost = t, cost
			}
		}
		label := best
		if best < 0 || wait+bestCost > 900 {
			label = templates + int(wait)/60%2
		}
		if rng.Intn(20) == 0 {
			label = rng.Intn(numLabels)
		}
		if special {
			row = append(row, 7, 3*wait+1, rng.Float64())
		}
		x, y = append(x, row), append(y, label)
		if special && rng.Intn(10) == 0 {
			x, y = append(x, slices.Clone(row)), append(y, (label+1)%numLabels)
		}
	}
	return x[:n], y[:n], numLabels
}

// sameTree reports the first difference between two subtrees.
func sameTree(a, b *Node, path string) error {
	if (a == nil) != (b == nil) {
		return fmt.Errorf("%s: one side ends", path)
	}
	if a == nil {
		return nil
	}
	if a.Leaf != b.Leaf || a.Label != b.Label || a.n != b.n || a.errs != b.errs {
		return fmt.Errorf("%s: leaf %v/%v label %d/%d n %d/%d errs %d/%d", path, a.Leaf, b.Leaf, a.Label, b.Label, a.n, b.n, a.errs, b.errs)
	}
	if !a.Leaf && (a.Feature != b.Feature || math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold)) {
		return fmt.Errorf("%s: split f%d<%v vs f%d<%v", path, a.Feature, a.Threshold, b.Feature, b.Threshold)
	}
	if err := sameTree(a.Left, b.Left, path+"L"); err != nil {
		return err
	}
	return sameTree(a.Right, b.Right, path+"R")
}

// The histogram builder must grow exactly the tree the presorted-lists
// builder grew — same splits to the threshold bit, same counts, same shape,
// before and after pruning — however the dataset was filled, and however
// often its rows repeat: the builder walks each distinct row once with its
// count, the reference walks every row.
func TestTrainMatchesReference(t *testing.T) {
	for _, n := range []int{40, 700, 2500} {
		for seed := int64(1); seed <= 3; seed++ {
			x, y, labels := shapedDataset(rand.New(rand.NewSource(seed*1000+int64(n))), n, true)
			checkMatchesReference(t, fmt.Sprintf("n=%d seed=%d", n, seed), x, y, labels)
		}
	}
	// Repeated rows: each of n base rows 1–40 times, some of those copies
	// under a second label, in shuffled order. At n = 600 the base rows
	// carry more than maxDistinctBuckets values in the continuous column,
	// so the wide-feature path sees repeats too.
	for _, n := range []int{40, 600} {
		for seed := int64(1); seed <= 2; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n) + 7))
			x, y, labels := shapedDataset(rng, n, true)
			x, y = repeatRows(rng, x, y, labels)
			checkMatchesReference(t, fmt.Sprintf("repeated n=%d seed=%d", n, seed), x, y, labels)
		}
	}
}

// checkMatchesReference fails unless Train grows referenceTrain's tree on
// the rows, filled by Add and by 37-row Ingest batches, under every
// combination of MinLeaf, MaxDepth and pruning the tests sweep.
func checkMatchesReference(t *testing.T, what string, x [][]float64, y []int, labels int) {
	t.Helper()
	added := datasetFrom(x, y, labels)
	ingested := &Dataset{NumLabels: labels}
	for lo := 0; lo < len(x); lo += 37 {
		hi := min(lo+37, len(x))
		ingested.Ingest(x[lo:hi], y[lo:hi])
	}
	for _, minLeaf := range []int{1, 2, 5} {
		for _, maxDepth := range []int{0, 3} {
			for _, prune := range []bool{false, true} {
				cfg := Config{MinLeaf: minLeaf, MaxDepth: maxDepth, Prune: prune}
				want := referenceTrain(x, y, labels, cfg)
				for name, ds := range map[string]*Dataset{"Add": added, "Ingest": ingested} {
					if err := sameTree(want.Root, Train(ds, cfg).Root, "/"); err != nil {
						t.Fatalf("%s %+v filled by %s: %v", what, cfg, name, err)
					}
				}
			}
		}
	}
}

// repeatRows returns every row 1–40 times, each copy a fresh slice; for one
// row in four, some of its copies carry the next label instead. The copies
// come back in shuffled order.
func repeatRows(rng *rand.Rand, x [][]float64, y []int, numLabels int) ([][]float64, []int) {
	var rx [][]float64
	var ry []int
	for i, row := range x {
		copies := 1 + rng.Intn(40)
		second := 0
		if rng.Intn(4) == 0 {
			second = 1 + rng.Intn(copies)
		}
		for c := 0; c < copies; c++ {
			label := y[i]
			if c < second {
				label = (label + 1) % numLabels
			}
			rx, ry = append(rx, slices.Clone(row)), append(ry, label)
		}
	}
	rng.Shuffle(len(rx), func(i, j int) {
		rx[i], rx[j] = rx[j], rx[i]
		ry[i], ry[j] = ry[j], ry[i]
	})
	return rx, ry
}

// A node is a leaf when its rows, counted with repeats, number under
// 2·MinLeaf, and a split needs MinLeaf rows on each side: a fit over two
// distinct rows must split exactly when their counts allow it, as the
// reference does over every row.
func TestTrainLeafFollowsCounts(t *testing.T) {
	for _, minLeaf := range []int{1, 2, 5} {
		for _, tc := range []struct {
			a, b  int // copies of row {0} (label 0) and row {1} (label 1)
			split bool
		}{
			{minLeaf, minLeaf - 1, false},     // 2·MinLeaf − 1 rows
			{minLeaf, minLeaf, true},          // 2·MinLeaf rows
			{minLeaf - 1, minLeaf + 1, false}, // 2·MinLeaf rows, one side short
			{2*minLeaf - 1, 0, false},         // one distinct row, 2·MinLeaf − 1 times
			{2 * minLeaf, 0, false},           // one distinct row, 2·MinLeaf times
		} {
			var x [][]float64
			var y []int
			for i := 0; i < tc.a+tc.b; i++ {
				v, label := 0.0, 0
				if i >= tc.a {
					v, label = 1, 1
				}
				x, y = append(x, []float64{v}), append(y, label)
			}
			cfg := Config{MinLeaf: minLeaf, Prune: false}
			got := Train(datasetFrom(x, y, 2), cfg)
			if got.Root.Leaf == tc.split {
				t.Errorf("MinLeaf=%d, %d×{0} and %d×{1}: leaf=%v, want split=%v", minLeaf, tc.a, tc.b, got.Root.Leaf, tc.split)
			}
			if got.Root.n != len(x) {
				t.Errorf("MinLeaf=%d, %d×{0} and %d×{1}: root counts %d rows, want %d", minLeaf, tc.a, tc.b, got.Root.n, len(x))
			}
			if err := sameTree(referenceTrain(x, y, 2, cfg).Root, got.Root, "/"); err != nil {
				t.Errorf("MinLeaf=%d, %d×{0} and %d×{1}: %v", minLeaf, tc.a, tc.b, err)
			}
		}
	}
}

// A dataset copies each new row, so a caller may reuse one backing array
// for every Add and Ingest: the rows and the tree are those of fresh
// slices.
func TestDatasetCopiesReusedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y, labels := shapedDataset(rng, 300, true)
	x, y = repeatRows(rng, x, y, labels)
	want := datasetFrom(x, y, labels)

	added := &Dataset{NumLabels: labels}
	buf := make([]float64, len(x[0]))
	for i := range x {
		copy(buf, x[i])
		added.Add(buf, y[i])
	}
	ingested := &Dataset{NumLabels: labels}
	slab := make([]float64, 37*len(x[0]))
	batch := make([][]float64, 37)
	for lo := 0; lo < len(x); lo += 37 {
		hi := min(lo+37, len(x))
		for i := lo; i < hi; i++ {
			batch[i-lo] = slab[(i-lo)*len(x[0]) : (i-lo+1)*len(x[0])]
			copy(batch[i-lo], x[i])
		}
		ingested.Ingest(batch[:hi-lo], y[lo:hi])
	}
	for name, ds := range map[string]*Dataset{"Add": added, "Ingest": ingested} {
		checkRows(t, name, ds, x, y)
		for _, cfg := range []Config{DefaultConfig(), {MinLeaf: 1}} {
			if err := sameTree(Train(want, cfg).Root, Train(ds, cfg).Root, "/"); err != nil {
				t.Fatalf("%s %+v: %v", name, cfg, err)
			}
		}
	}
}

// Rows whose hashes collide in the index stay apart: a repeat is a row
// equal bit for bit, never one that merely hashes alike.
func TestDatasetHashCollisionsStayDistinct(t *testing.T) {
	seen := map[uint32]float64{}
	var a, b []float64
	for v := 0.0; a == nil; v++ {
		row := []float64{1, v}
		h := uint32(hashRow(row, 0))
		if w, ok := seen[h]; ok {
			a, b = []float64{1, w}, row
		}
		seen[h] = v
	}
	ds := &Dataset{NumLabels: 1}
	rows := [][]float64{a, b, a, b, b}
	for _, row := range rows {
		ds.Add(row, 0)
	}
	checkRows(t, fmt.Sprintf("colliding rows %v and %v", a, b), ds, rows, make([]int, len(rows)))
	if !slices.Equal(ds.distinct.n, []int32{2, 3}) {
		t.Fatalf("group counts %v, want [2 3]", ds.distinct.n)
	}
}

// Adding a row the dataset already holds allocates nothing: it counts the
// row's group and keeps nothing per row.
func TestDatasetRepeatAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 100
	x, y, labels := shapedDataset(rand.New(rand.NewSource(9)), 200, true)
	ds := datasetFrom(x, y, labels)
	row := slices.Clone(x[17])
	if allocs := testing.AllocsPerRun(runs, func() { ds.Add(row, y[17]) }); allocs != 0 {
		t.Fatalf("Add of a present row allocated %v times per call", allocs)
	}
}

// BenchmarkTreeFit times one tree fit of 21 features and 7 labels, filled
// by Add so the grouping of repeats and the value coding are inside the
// measurement, at the two ends of the training sets a model is built from:
//   - near-unique: 29 000 rows, nearly all distinct, the end Average and
//     Percentile training sets (29–40 % distinct) lean toward;
//   - repeats: 8 000 rows drawn from 320 distinct ones (4 % distinct), the
//     shape of a monotonic goal's serving-scale training set.
func BenchmarkTreeFit(b *testing.B) {
	x, y, labels := shapedDataset(rand.New(rand.NewSource(1)), 29000, false)
	b.Run("near-unique", func(b *testing.B) { benchmarkFit(b, x, y, labels) })

	rng := rand.New(rand.NewSource(2))
	px, py, labels := shapedDataset(rng, 320, false)
	x, y = nil, nil
	for len(x) < 8000 {
		i := rng.Intn(len(px))
		x, y = append(x, px[i]), append(y, py[i])
	}
	b.Run("repeats", func(b *testing.B) { benchmarkFit(b, x, y, labels) })
}

func benchmarkFit(b *testing.B, x [][]float64, y []int, labels int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tree := Train(datasetFrom(x, y, labels), DefaultConfig())
		b.ReportMetric(float64(tree.NumNodes()), "nodes")
	}
}

// ---- reference builder ----
//
// The presorted-lists C4.5 builder this package trained with before the
// histogram builder, kept as the oracle TestTrainMatchesReference compares
// every tree against: verbatim but for its types' names and its input,
// every row the test generated, repeats included.

func referenceTrain(x [][]float64, y []int, numLabels int, cfg Config) *Tree {
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	if cfg.PruneConfidence <= 0 {
		cfg.PruneConfidence = 0.25
	}
	b := &refBuilder{x: x, y: y, numLabels: numLabels, cfg: cfg}
	root := b.build(b.presort(), 0)
	if cfg.Prune {
		pruneNode(root, normalUpperQuantile(cfg.PruneConfidence))
	}
	return &Tree{Root: root, NumLabels: numLabels}
}

type refBuilder struct {
	// x[i] is row i with label y[i]: every row, repeats included.
	x         [][]float64
	y         []int
	numLabels int
	cfg       Config
	// inLeft marks, during one split's partition, which rows fall on the
	// left of the threshold; indexed by row, cleared after each use. A
	// single scratch suffices because the build is depth-first.
	inLeft []bool
}

// refPair is one row projected onto a single feature, packed so presort
// compares values without indirecting through the row storage.
type refPair struct {
	v float64
	i int32
}

// presort builds, once per training run, the row indices sorted by each
// feature's value (ties by row index, so the order — and therefore the
// whole build — is deterministic). build partitions these lists stably at
// every split, so no node ever re-sorts: the classic C4.5 presorting
// optimization, turning the per-node split scan from O(F·n log n) into
// O(F·n).
//
// The features this package serves (template counts, 0/1 booleans, waits
// quantized to template latencies) have few distinct values, so each
// feature is ordered by a stable counting sort over its distinct-value
// table — O(n log d) with d small — rather than a comparison sort;
// high-cardinality features fall back to comparison sorting.
func (b *refBuilder) presort() [][]int32 {
	n := len(b.x)
	sorted := make([][]int32, len(b.x[0]))
	distinct := make([]float64, 0, maxDistinctBuckets)
	bucketOf := make([]int32, n)
	offs := make([]int32, maxDistinctBuckets+1)
	for f := range sorted {
		distinct = distinct[:0]
		bucketed := true
		for i := 0; i < n; i++ {
			pos, found := slices.BinarySearch(distinct, b.x[i][f])
			if !found {
				if len(distinct) == maxDistinctBuckets {
					bucketed = false
					break
				}
				distinct = slices.Insert(distinct, pos, b.x[i][f])
			}
		}
		if !bucketed {
			sorted[f] = b.comparisonSort(f)
			continue
		}
		for i := range offs[:len(distinct)+1] {
			offs[i] = 0
		}
		for i := 0; i < n; i++ {
			pos, _ := slices.BinarySearch(distinct, b.x[i][f])
			bucketOf[i] = int32(pos)
			offs[pos+1]++
		}
		for d := 1; d <= len(distinct); d++ {
			offs[d] += offs[d-1]
		}
		s := make([]int32, n)
		for i := 0; i < n; i++ {
			s[offs[bucketOf[i]]] = int32(i)
			offs[bucketOf[i]]++
		}
		sorted[f] = s
	}
	return sorted
}

// comparisonSort orders the rows by feature f's value (ties by row index):
// the presort fallback for features with many distinct values.
func (b *refBuilder) comparisonSort(f int) []int32 {
	pairs := make([]refPair, len(b.x))
	for i, x := range b.x {
		pairs[i] = refPair{v: x[f], i: int32(i)}
	}
	slices.SortFunc(pairs, func(a, c refPair) int {
		if a.v < c.v {
			return -1
		}
		if a.v > c.v {
			return 1
		}
		return int(a.i - c.i)
	})
	s := make([]int32, len(pairs))
	for i, p := range pairs {
		s[i] = p.i
	}
	return s
}

// build grows a subtree over the partition held in sorted: one per-feature
// value-ordered list of the same row set (sorted[0] doubles as the row
// enumeration).
func (b *refBuilder) build(sorted [][]int32, depth int) *Node {
	rows := sorted[0]
	counts := make([]int, b.numLabels)
	for _, i := range rows {
		counts[b.y[i]]++
	}
	label, labelCount := majority(counts)
	node := &Node{Label: label, n: len(rows), errs: len(rows) - labelCount}
	if labelCount == len(rows) || len(rows) < 2*b.cfg.MinLeaf ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		node.Leaf = true
		return node
	}
	feature, threshold, ok := b.bestSplit(sorted, counts)
	if !ok {
		node.Leaf = true
		return node
	}
	// Stable-partition every feature's list by the split predicate: each
	// child's lists stay value-ordered, so the children need no sorting.
	// The predicate is evaluated once per row into the scratch bitmap, so
	// the F partition passes do one byte load per element instead of two
	// dependent pointer chases.
	if b.inLeft == nil {
		b.inLeft = make([]bool, len(b.x))
	}
	nLeft := 0
	for _, i := range rows {
		if b.x[i][feature] < threshold {
			b.inLeft[i] = true
			nLeft++
		}
	}
	left := make([][]int32, len(sorted))
	right := make([][]int32, len(sorted))
	for f, sf := range sorted {
		lf := make([]int32, 0, nLeft)
		rf := make([]int32, 0, len(rows)-nLeft)
		for _, i := range sf {
			if b.inLeft[i] {
				lf = append(lf, i)
			} else {
				rf = append(rf, i)
			}
		}
		left[f], right[f] = lf, rf
	}
	for _, i := range rows {
		b.inLeft[i] = false
	}
	node.Feature = feature
	node.Threshold = threshold
	node.Left = b.build(left, depth+1)
	node.Right = b.build(right, depth+1)
	return node
}

// bestSplit finds the (feature, threshold) with the highest gain ratio
// among splits with positive information gain that respect MinLeaf. Ties
// are broken toward the lower feature index (features scan in order and a
// later candidate must beat the incumbent by more than 1e-12).
func (b *refBuilder) bestSplit(sorted [][]int32, counts []int) (feature int, threshold float64, ok bool) {
	n := len(sorted[0])
	base := entropy(counts, n)
	bestRatio := 0.0
	leftCounts := make([]int, b.numLabels)
	rightCounts := make([]int, b.numLabels)
	for f, sf := range sorted {
		if b.x[sf[0]][f] == b.x[sf[n-1]][f] {
			continue // constant within the partition: nothing to split on
		}
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		copy(rightCounts, counts)
		nLeft := 0
		for j := 0; j < n-1; j++ {
			i := sf[j]
			leftCounts[b.y[i]]++
			rightCounts[b.y[i]]--
			nLeft++
			v, next := b.x[i][f], b.x[sf[j+1]][f]
			if v == next {
				continue // threshold must separate distinct values
			}
			nRight := n - nLeft
			if nLeft < b.cfg.MinLeaf || nRight < b.cfg.MinLeaf {
				continue
			}
			pl := float64(nLeft) / float64(n)
			gain := base - pl*entropy(leftCounts, nLeft) - (1-pl)*entropy(rightCounts, nRight)
			if gain <= 1e-12 {
				continue
			}
			splitInfo := -pl*math.Log2(pl) - (1-pl)*math.Log2(1-pl)
			if splitInfo <= 1e-12 {
				continue
			}
			ratio := gain / splitInfo
			if ratio > bestRatio+1e-12 {
				bestRatio = ratio
				feature = f
				threshold = midpoint(v, next)
				ok = true
			}
		}
	}
	return feature, threshold, ok
}
