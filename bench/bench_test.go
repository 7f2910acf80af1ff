package main

import (
	"math"
	"reflect"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 values = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p      float64
		value  int64
		beyond int
	}{{50, 500, 500}, {90, 900, 100}, {99, 990, 10}, {100, 1000, 0}} {
		v, beyond := percentileSorted(sorted, c.p)
		if v != c.value || beyond != c.beyond {
			t.Errorf("p%g of 1..1000 = %d with %d beyond, want %d with %d", c.p, v, beyond, c.value, c.beyond)
		}
	}
	if v, beyond := percentileSorted([]int64{7}, 99); v != 7 || beyond != 0 {
		t.Errorf("p99 of one sample = %d with %d beyond", v, beyond)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which the driver uses: quantiles(range(1, 11)) is [2.75, 5.5, 8.25] and
// quantiles([1, 2, 4, 8, 16]) is [1.5, 4.0, 12.0].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of 1..10 = %g, want %g", got, want)
	}
	five := []float64{16, 1, 8, 2, 4}
	if got, want := quartileSpread(five), (12.0-1.5)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of powers of two = %g, want %g", got, want)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100) with children [10,30) and [40,90); the second child has
	// a child of its own [50,60).
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 30, parent: 0},
		{name: "b", start: 40, end: 90, parent: 0},
		{name: "c", start: 50, end: 60, parent: 2},
	}
	if got, want := selfTimes(spans), []int64{30, 20, 40, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	sum := summarize(spans)
	total := int64(0)
	for _, s := range sum {
		total += s.self
	}
	if total != 100 {
		t.Errorf("self times sum to %d, the root lasted 100", total)
	}
	if sum["b"].meanNS() != 50 || sum["b"].medianNS() != 50 {
		t.Errorf("span b: mean %g median %g, want 50", sum["b"].meanNS(), sum["b"].medianNS())
	}
	var none *tracer
	none.end(none.begin("x", -1, 0)) // a nil tracer records nothing
}

// inputsFingerprint hashes every generated input of a seed.
func inputsFingerprint(t *testing.T, seed int64) uint64 {
	t.Helper()
	in := newInputs(seed, tinySizes())
	fp := newFingerprinter()
	for _, rotations := range []bool{false, true} {
		for _, c := range in.cycles(2, rotations) {
			for _, tpl := range c {
				fp.u64(uint64(tpl))
			}
		}
	}
	for _, q := range in.evalWorkload(50).Queries {
		fp.u64(uint64(q.TemplateID))
	}
	mixes, err := in.mixWalk(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, mix := range mixes {
		for _, w := range mix {
			fp.f64(w)
		}
	}
	return fp.sum()
}

// The same seed gives the same inputs — today and after any change to the
// generators, which would silently move every committed number.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	const pinned = 0x21acdbfdb5b124c2
	if got := inputsFingerprint(t, defaultSeed); got != pinned {
		t.Errorf("inputs of seed %d hash to %#x, pinned %#x", defaultSeed, got, uint64(pinned))
	}
	if inputsFingerprint(t, defaultSeed) == inputsFingerprint(t, heldOutSeed) {
		t.Error("the held-out seed generates the default seed's inputs")
	}
}

func TestGeneratedInputsAreBalanced(t *testing.T) {
	in := newInputs(defaultSeed, tinySizes())
	if n := len(allCycles()); n != 24 {
		t.Fatalf("%d cyclic orders of five templates, want 24", n)
	}
	if n := len(in.cycles(1, true)); n != 120 {
		t.Fatalf("a rotated pass has %d cycles, want 120", n)
	}
	seen := map[cycle]int{}
	for _, c := range in.cycles(3, true) {
		seen[c]++
	}
	for c, n := range seen {
		if n != 3 {
			t.Errorf("cycle %v appears %d times in three passes", c, n)
		}
	}
	counts := in.evalWorkload(100).Counts()
	for tpl, n := range counts {
		if n != 20 {
			t.Errorf("template %d has %d of 100 evaluation queries", tpl, n)
		}
	}
	mixes, err := in.mixWalk(40)
	if err != nil {
		t.Fatal(err)
	}
	for i, mix := range mixes {
		sum := 0.0
		for j, w := range mix {
			sum += w
			if math.Abs(w-retrainCentre[j]) > 0.03 {
				t.Errorf("mix %d strays to %v", i, mix)
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("mix %d sums to %g", i, sum)
		}
	}
}

// One tiny round of every workload, end to end and traced, behind the same
// correctness gate the full-size runs use.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			in := newInputs(defaultSeed, tinySizes())
			rep, err := runEndToEnd(wl, in, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted < 1 {
				t.Fatalf("end-to-end run: correct=%v attempted=%d failed=%d notes=%q", rep.correct, rep.attempted, rep.failed, rep.notes)
			}
			for _, d := range endToEnd {
				if v, ok := rep.metrics[d.name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v", d.name, v)
				}
			}
			again, err := runEndToEnd(wl, newInputs(defaultSeed, tinySizes()), 0)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := rep.metrics["cost_cents_per_query"], again.metrics["cost_cents_per_query"]; math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("cost per query %v, then %v from the same seed", a, b)
			}

			rep, err = runTraced(wl, in, "")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct {
				t.Fatalf("traced run: %q", rep.notes)
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.name] = true
			}
			for name := range rep.metrics {
				if !known[name] {
					t.Errorf("traced run reports %s, which the catalog does not list", name)
				}
			}
			// A tiny wire-steady round is mostly dialling and finishing,
			// which no span covers; the in-process rounds are all spans.
			low := 0.5
			if wl.name == "wire-steady" {
				low = 0
			}
			if r := rep.metrics["process.layers_sum_ratio"]; !(r > low && r < 1.1) {
				t.Errorf("layers cover %g of the traced wall time", r)
			}
		})
	}
}
