package workload

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultTemplates(t *testing.T) {
	ts := DefaultTemplates(10)
	if len(ts) != 10 {
		t.Fatalf("want 10 templates, got %d", len(ts))
	}
	if ts[0].BaseLatency != 2*time.Minute || ts[9].BaseLatency != 6*time.Minute {
		t.Fatalf("latency range should span 2-6 minutes, got %s..%s", ts[0].BaseLatency, ts[9].BaseLatency)
	}
	var sum time.Duration
	for i, tpl := range ts {
		if tpl.ID != i {
			t.Fatalf("template %d has ID %d", i, tpl.ID)
		}
		if i > 0 && tpl.BaseLatency <= ts[i-1].BaseLatency {
			t.Fatal("latencies must increase")
		}
		sum += tpl.BaseLatency
	}
	if mean := sum / 10; mean != 4*time.Minute {
		t.Fatalf("mean latency should be 4 minutes (§7.1), got %s", mean)
	}
	low := 0
	for _, tpl := range ts {
		if !tpl.HighRAM {
			low++
		}
	}
	if low != 5 {
		t.Fatalf("want 5 low-RAM templates, got %d", low)
	}
}

func TestDefaultTemplatesSingle(t *testing.T) {
	ts := DefaultTemplates(1)
	if len(ts) != 1 || ts[0].BaseLatency != 2*time.Minute {
		t.Fatalf("unexpected single-template set: %v", ts)
	}
}

func TestUniformSampling(t *testing.T) {
	ts := DefaultTemplates(4)
	s := NewSampler(ts, 42)
	counts := make([]int, 4)
	const n = 40000
	w := s.Uniform(n)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range w.Queries {
		counts[q.TemplateID]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.23 || frac > 0.27 {
			t.Fatalf("template %d frequency %f, want ~0.25", i, frac)
		}
	}
}

func TestSamplerDeterministic(t *testing.T) {
	ts := DefaultTemplates(5)
	a := NewSampler(ts, 7).Uniform(100)
	b := NewSampler(ts, 7).Uniform(100)
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			t.Fatal("same seed must give same workload")
		}
	}
}

// A reseeded sampler draws what a fresh sampler of that seed draws, also
// after it has drawn under other seeds: uniform workloads, and weighted
// workloads with their variates.
func TestSamplerReseedMatchesNewSampler(t *testing.T) {
	ts := DefaultTemplates(5)
	weights := []float64{0.3, 0.25, 0.2, 0.15, 0.1}
	reused := NewSampler(ts, 99)
	reused.Uniform(17) // used before its first reseed
	seeds := []int64{0, 1, -1, 7, 42, 1 << 31, -(1 << 40), 1<<63 - 1, -1 << 63}
	for i := 0; i < 20; i++ {
		seeds = append(seeds, rand.New(rand.NewSource(int64(i))).Int63())
	}
	for _, seed := range seeds {
		reused.Reseed(seed)
		got, want := reused.Uniform(30), NewSampler(ts, seed).Uniform(30)
		if !slices.Equal(got.Queries, want.Queries) {
			t.Fatalf("seed %d: reseeded Uniform %v, fresh %v", seed, got.Queries, want.Queries)
		}
		reused.Reseed(seed)
		gw, gv := reused.WeightedVariates(30, weights)
		ww, wv := NewSampler(ts, seed).WeightedVariates(30, weights)
		if !slices.Equal(gw.Queries, ww.Queries) || !slices.Equal(gv, wv) {
			t.Fatalf("seed %d: reseeded WeightedVariates differ from a fresh sampler's", seed)
		}
	}
}

func TestWeightedSampling(t *testing.T) {
	ts := DefaultTemplates(3)
	s := NewSampler(ts, 5)
	w := s.Weighted(10000, []float64{0, 0, 1})
	for _, q := range w.Queries {
		if q.TemplateID != 2 {
			t.Fatalf("zero-weight template %d sampled", q.TemplateID)
		}
	}
}

// WeightedMatches answers exactly whether rebinning the variates would
// rebuild the workload: over small mix drifts of many seeds (most draws
// keep every query, some move one), and for a workload that differs only
// in a tag or an arrival.
func TestWeightedMatchesRebin(t *testing.T) {
	ts := DefaultTemplates(5)
	prior := []float64{0.3, 0.25, 0.2, 0.15, 0.1}
	kept, moved := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		w, variates := NewSampler(ts, seed).WeightedVariates(12, prior)
		if !WeightedMatches(w, variates, prior) {
			t.Fatalf("seed %d: a workload does not match its own draw", seed)
		}
		rng := rand.New(rand.NewSource(seed))
		to := slices.Clone(prior)
		for i := range to {
			to[i] += 0.04 * (rng.Float64() - 0.5)
		}
		want := slices.Equal(WeightedFromVariates(ts, variates, to).Queries, w.Queries)
		if got := WeightedMatches(w, variates, to); got != want {
			t.Fatalf("seed %d: WeightedMatches %v, rebinning keeps the queries %v", seed, got, want)
		}
		if want {
			kept++
		} else {
			moved++
		}
	}
	if kept == 0 || moved == 0 {
		t.Fatalf("%d draws kept and %d moved: the drift exercises only one answer", kept, moved)
	}
	w, variates := NewSampler(ts, 3).WeightedVariates(12, prior)
	for _, edit := range []func(q *Query){
		func(q *Query) { q.Tag++ },
		func(q *Query) { q.Arrival = time.Second },
	} {
		c := &Workload{Templates: ts, Queries: slices.Clone(w.Queries)}
		edit(&c.Queries[5])
		if WeightedMatches(c, variates, prior) {
			t.Fatalf("an edited query %+v matches the draw", c.Queries[5])
		}
	}
	if WeightedMatches(w, variates[:11], prior) {
		t.Fatal("a workload matches a shorter draw")
	}
}

func TestSkewWeights(t *testing.T) {
	uniform := SkewWeights(4, 0, 0)
	for _, w := range uniform {
		if w != 0.25 {
			t.Fatalf("skew=0 must be uniform, got %v", uniform)
		}
	}
	point := SkewWeights(4, 1, 2)
	if point[2] != 1 {
		t.Fatalf("skew=1 must be a point mass, got %v", point)
	}
	// Property: weights always sum to 1 and are non-negative.
	f := func(skewRaw uint8, favRaw uint8) bool {
		skew := float64(skewRaw) / 255
		fav := int(favRaw) % 4
		ws := SkewWeights(4, skew, fav)
		sum := 0.0
		for _, w := range ws {
			if w < 0 {
				return false
			}
			sum += w
		}
		return sum > 0.999 && sum < 1.001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounts(t *testing.T) {
	ts := DefaultTemplates(3)
	w := &Workload{Templates: ts, Queries: []Query{
		{TemplateID: 0}, {TemplateID: 2}, {TemplateID: 2},
	}}
	c := w.Counts()
	if c[0] != 1 || c[1] != 0 || c[2] != 2 {
		t.Fatalf("bad counts %v", c)
	}
}

func TestValidateRejectsBadTemplates(t *testing.T) {
	ts := DefaultTemplates(2)
	w := &Workload{Templates: ts, Queries: []Query{{TemplateID: 5}}}
	if err := w.Validate(); err == nil {
		t.Fatal("want error for out-of-range template")
	}
	bad := &Workload{Templates: []Template{{ID: 1, Name: "x", BaseLatency: time.Minute}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for non-dense template IDs")
	}
}

func TestWithArrivalsSorts(t *testing.T) {
	ts := DefaultTemplates(2)
	w := &Workload{Templates: ts, Queries: []Query{
		{TemplateID: 0, Tag: 0}, {TemplateID: 1, Tag: 1}, {TemplateID: 0, Tag: 2},
	}}
	out := w.WithArrivals([]time.Duration{30 * time.Second, 10 * time.Second, 20 * time.Second})
	for i := 1; i < len(out.Queries); i++ {
		if out.Queries[i].Arrival < out.Queries[i-1].Arrival {
			t.Fatal("arrivals not sorted")
		}
	}
	if out.Queries[0].Tag != 1 {
		t.Fatalf("earliest arrival should be tag 1, got %d", out.Queries[0].Tag)
	}
	// Original untouched.
	if w.Queries[0].Arrival != 0 {
		t.Fatal("WithArrivals must not mutate the receiver")
	}
}

func TestFixedDelayArrivals(t *testing.T) {
	a := FixedDelayArrivals(4, time.Second)
	want := []time.Duration{0, time.Second, 2 * time.Second, 3 * time.Second}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("at %d: want %s, got %s", i, want[i], a[i])
		}
	}
}

func TestNormalArrivalsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NormalArrivals(100, 250*time.Millisecond, 125*time.Millisecond, rng)
	if a[0] != 0 {
		t.Fatal("first arrival must be 0")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("arrivals must be non-decreasing")
		}
	}
}

// WithArrivals must be a stable sort: queries arriving at the same instant
// keep their index order, so the tag composition of each same-instant batch
// event is deterministic. The old insertion sort happened to be stable but
// was O(n²) on out-of-order flash-crowd traces; this pins the tie contract
// the replacement must keep.
func TestWithArrivalsStableTies(t *testing.T) {
	templates := DefaultTemplates(3)
	n := 60
	queries := make([]Query, n)
	arrivals := make([]time.Duration, n)
	for i := range queries {
		queries[i] = Query{TemplateID: i % 3, Tag: i}
		// Three interleaved burst instants plus a reversed tail: ties at
		// every instant, inversions throughout.
		arrivals[i] = time.Duration(2-i%3) * time.Minute
	}
	w := &Workload{Templates: templates, Queries: queries}
	out := w.WithArrivals(arrivals)
	// Non-decreasing, and within each instant the original index order.
	lastArrival, lastTag := time.Duration(-1), -1
	for _, q := range out.Queries {
		if q.Arrival < lastArrival {
			t.Fatalf("arrivals out of order: %s after %s", q.Arrival, lastArrival)
		}
		if q.Arrival == lastArrival && q.Tag < lastTag {
			t.Fatalf("tie at %s broke index order: tag %d after %d", q.Arrival, q.Tag, lastTag)
		}
		if q.Arrival != lastArrival {
			lastTag = -1
		}
		lastArrival, lastTag = q.Arrival, q.Tag
	}
	// Bit-determinism: two identical calls agree exactly.
	again := w.WithArrivals(arrivals)
	for i := range out.Queries {
		if out.Queries[i] != again.Queries[i] {
			t.Fatalf("WithArrivals not deterministic at %d: %+v vs %+v", i, out.Queries[i], again.Queries[i])
		}
	}
}

// A fully reversed trace — the worst case for the old O(n²) insertion sort —
// sorts correctly at flash-crowd scale.
func TestWithArrivalsReversedTrace(t *testing.T) {
	templates := DefaultTemplates(2)
	n := 20000
	queries := make([]Query, n)
	arrivals := make([]time.Duration, n)
	for i := range queries {
		queries[i] = Query{TemplateID: i % 2, Tag: i}
		arrivals[i] = time.Duration(n-i) * time.Millisecond
	}
	w := &Workload{Templates: templates, Queries: queries}
	out := w.WithArrivals(arrivals)
	for i, q := range out.Queries {
		if want := time.Duration(i+1) * time.Millisecond; q.Arrival != want {
			t.Fatalf("at %d: arrival %s, want %s", i, q.Arrival, want)
		}
		if q.Tag != n-1-i {
			t.Fatalf("at %d: tag %d, want %d", i, q.Tag, n-1-i)
		}
	}
}
