package dt

import (
	"math/rand"
	"testing"
)

// randomDataset draws a labeled dataset with clustered structure so trained
// trees have non-trivial depth, and returns it with the rows it holds.
func randomDataset(rng *rand.Rand, numFeatures, numLabels, n int) (*Dataset, [][]float64) {
	ds := &Dataset{NumLabels: numLabels}
	var rows [][]float64
	centers := make([][]float64, numLabels)
	for l := range centers {
		centers[l] = make([]float64, numFeatures)
		for f := range centers[l] {
			centers[l][f] = rng.Float64() * 10
		}
	}
	for i := 0; i < n; i++ {
		y := rng.Intn(numLabels)
		x := make([]float64, numFeatures)
		for f := range x {
			x[f] = centers[y][f] + rng.NormFloat64()*2
		}
		ds.Add(x, y)
		rows = append(rows, x)
	}
	return ds, rows
}

// CompiledTree.Predict must agree with Tree.Predict on every input: the
// property is checked over randomized trees (varying size, shape, and
// pruning) and randomized query vectors, including the training rows
// themselves.
func TestCompiledTreeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		numFeatures := 1 + rng.Intn(6)
		numLabels := 2 + rng.Intn(5)
		n := 4 + rng.Intn(200)
		ds, rows := randomDataset(rng, numFeatures, numLabels, n)
		cfg := Config{
			MinLeaf:  1 + rng.Intn(4),
			MaxDepth: rng.Intn(8), // 0 = unlimited
			Prune:    rng.Intn(2) == 0,
		}
		tree := Train(ds, cfg)
		compiled := tree.Compile()
		if got, want := compiled.NumNodes(), tree.NumNodes(); got != want {
			t.Fatalf("trial %d: compiled %d nodes, tree has %d", trial, got, want)
		}
		check := func(x []float64) {
			if got, want := compiled.Predict(x), tree.Predict(x); got != want {
				t.Fatalf("trial %d: compiled predicts %d, tree predicts %d for %v", trial, got, want, x)
			}
		}
		for _, x := range rows {
			check(x)
		}
		x := make([]float64, numFeatures)
		for probe := 0; probe < 100; probe++ {
			for f := range x {
				x[f] = rng.Float64()*14 - 2
			}
			check(x)
		}
	}
}

// A single-leaf tree (e.g. a pure dataset) must compile and predict.
func TestCompiledTreeSingleLeaf(t *testing.T) {
	ds := &Dataset{NumLabels: 3}
	ds.Add([]float64{1, 2}, 2)
	ds.Add([]float64{3, 4}, 2)
	compiled := Train(ds, DefaultConfig()).Compile()
	if compiled.NumNodes() != 1 {
		t.Fatalf("want 1 node, got %d", compiled.NumNodes())
	}
	if got := compiled.Predict([]float64{9, 9}); got != 2 {
		t.Fatalf("want label 2, got %d", got)
	}
}

// Predict on the compiled form must not allocate.
func TestCompiledTreePredictAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds, _ := randomDataset(rng, 4, 3, 300)
	compiled := Train(ds, DefaultConfig()).Compile()
	x := []float64{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(100, func() { compiled.Predict(x) }); allocs > 0 {
		t.Fatalf("CompiledTree.Predict allocated %g times per run", allocs)
	}
}
