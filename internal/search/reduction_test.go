package search

import (
	"math"
	"testing"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Dominance pruning for percentile goals must also be lossless against
// brute force, including workloads that force violations.
func TestPercentileDominanceLossless(t *testing.T) {
	env := testEnv(3, 1)
	// Tight percentile goal: 60% of queries within the shortest template
	// latency, so most workloads must pay or spread out.
	goal := sla.NewPercentile(60, env.Templates[0].BaseLatency, env.Templates, sla.DefaultPenaltyRate)
	prob := graph.NewProblem(env, goal)
	sampler := workload.NewSampler(env.Templates, 41)
	for trial := 0; trial < 10; trial++ {
		w := sampler.Uniform(5)
		res := solve(t, prob, w, Options{})
		want := BruteForceCost(prob, w)
		if math.Abs(res.Cost-want) > 1e-6 {
			t.Fatalf("trial %d: A*+dominance %.6f, brute force %.6f", trial, res.Cost, want)
		}
	}
}

// Seeded branch-and-bound must prove seed optimality when the seed is the
// optimum, and beat it when it is not.
func TestIncumbentSeeding(t *testing.T) {
	env := testEnv(4, 1)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	prob := graph.NewProblem(env, goal)
	s, err := New(prob)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewSampler(env.Templates, 61).Uniform(8)
	exact, err := s.Solve(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed with the exact optimum: nothing beats it.
	if _, err := s.Solve(w, Options{IncumbentCost: exact.Cost}); err != ErrSeedIsOptimal {
		t.Fatalf("want ErrSeedIsOptimal, got %v", err)
	}
	// Seed with a loose bound: the search must find the optimum.
	res, err := s.Solve(w, Options{IncumbentCost: exact.Cost * 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-exact.Cost) > 1e-6 {
		t.Fatalf("seeded search found %.6f, want %.6f", res.Cost, exact.Cost)
	}
	// A seeded search is not canonical: its optimal schedule need not be
	// the canonical completion a cache holds, so it neither stitches from
	// a cache nor records into one.
	var rec PendingSuffixes
	if _, err := s.Solve(w, Options{Record: &rec}); err != nil {
		t.Fatal(err)
	}
	cache := NewTranspositionCache()
	cache.Commit(&rec)
	res, err = s.Solve(w, Options{IncumbentCost: exact.Cost * 2, Cache: cache, Record: &rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 || res.CacheHits+res.CacheMisses != 0 {
		t.Fatalf("seeded search recorded %d suffixes and made %d cache lookups", rec.Len(), res.CacheHits+res.CacheMisses)
	}
}

// The per-goal heuristic lower bounds must never exceed the true optimal
// cost when evaluated at the start vertex (full-path admissibility is
// implied by A* returning brute-force answers; this pins the bound helpers
// directly, including the VM-count terms).
func TestBoundsAdmissibleAtRoot(t *testing.T) {
	env := testEnv(4, 1)
	for name, goal := range goalSet(env) {
		t.Run(name, func(t *testing.T) {
			sampler := workload.NewSampler(env.Templates, 31)
			prob := graph.NewProblem(env, goal)
			s, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				w := sampler.Uniform(6)
				start := prob.Start(w)
				sig := []byte(prob.Signature(start))
				h := s.heuristic(newArena(), start, sig, hashSig(sig), nil)
				res, err := s.Solve(w, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if h > res.Cost+1e-6 {
					t.Fatalf("trial %d: root heuristic %.6f exceeds optimum %.6f", trial, h, res.Cost)
				}
			}
		})
	}
}

// Ablation: the packing bound must dramatically reduce expansions for
// monotonic goals at training sizes (this is what makes N=thousands of
// samples tractable). Guard against silent regressions.
func TestPackingBoundEffective(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := testEnv(10, 1)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	s, err := New(graph.NewProblem(env, goal))
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewSampler(env.Templates, 1).Uniform(18)
	res, err := s.Solve(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Expanded > 50_000 {
		t.Fatalf("m=18 Max search expanded %d states; packing bound regression (expect a few thousand)", res.Expanded)
	}
}
