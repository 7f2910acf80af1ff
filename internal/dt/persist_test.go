package dt

import (
	"fmt"
	"math/rand"
	"testing"
)

// Export/TreeFromExport must round-trip randomized trained trees exactly:
// identical predictions, identical Dump (which exercises the pruning
// counts riding along).
func TestTreeExportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	name := func(l int) string { return fmt.Sprintf("L%d", l) }
	for trial := 0; trial < 20; trial++ {
		numFeatures := 2 + rng.Intn(4)
		ds, _ := randomDataset(rng, numFeatures, 2+rng.Intn(5), 60+rng.Intn(200))
		ds.FeatureNames = make([]string, numFeatures)
		for i := range ds.FeatureNames {
			ds.FeatureNames[i] = fmt.Sprintf("f%d", i)
		}
		tree := Train(ds, DefaultConfig())
		back, err := TreeFromExport(tree.Export(), tree.FeatureNames, tree.NumLabels)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, want := back.Dump(name), tree.Dump(name); got != want {
			t.Fatalf("trial %d: Dump differs after round trip:\n%s\nvs\n%s", trial, got, want)
		}
		for i := 0; i < 500; i++ {
			x := make([]float64, len(ds.FeatureNames))
			for j := range x {
				x[j] = rng.Float64() * 10
			}
			if back.Predict(x) != tree.Predict(x) {
				t.Fatalf("trial %d: predictions diverge on %v", trial, x)
			}
		}
	}
}

// A pathologically deep (left-spine) tree must import without touching
// the goroutine stack: model files are untrusted input, and a recursive
// importer would die with an unrecoverable stack overflow here.
func TestTreeFromExportDeepSpine(t *testing.T) {
	const depth = 500_000
	nodes := make([]FlatTreeNode, 0, 2*depth+1)
	for i := 0; i < depth; i++ {
		nodes = append(nodes, FlatTreeNode{Feature: 0, Threshold: float64(depth - i)})
	}
	for i := 0; i <= depth; i++ {
		nodes = append(nodes, FlatTreeNode{Leaf: true, Label: 1})
	}
	tree, err := TreeFromExport(nodes, []string{"f0"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{0}); got != 1 {
		t.Fatalf("deep-spine predict: %d", got)
	}
}

// Malformed exports must error, not panic.
func TestTreeFromExportRejectsMalformed(t *testing.T) {
	names := []string{"f0"}
	leaf := FlatTreeNode{Leaf: true, Label: 0, N: 1}
	split := FlatTreeNode{Feature: 0, Threshold: 1}
	cases := map[string][]FlatTreeNode{
		"empty":             {},
		"dangling subtree":  {split, leaf},
		"trailing nodes":    {leaf, leaf},
		"label out of rng":  {{Leaf: true, Label: 7}},
		"feature out of r":  {{Feature: 3}, leaf, leaf},
		"negative feature":  {{Feature: -1}, leaf, leaf},
		"incomplete branch": {split},
	}
	for name, nodes := range cases {
		if _, err := TreeFromExport(nodes, names, 2); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}
