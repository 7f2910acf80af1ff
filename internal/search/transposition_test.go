package search

import (
	"math"
	"testing"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Transposition-cache stitching must be exact: a searcher solving a stream
// of sample workloads with a shared cache (committed after every solve, as
// a sequential training run does) must return the same optimal cost as an
// uncached searcher, and the stitched action paths must build valid
// schedules whose Eq. 1 cost equals the reported cost.
func TestTranspositionCacheStitchExact(t *testing.T) {
	env := testEnv(5, 2)
	for _, name := range []string{"max", "perquery"} {
		goal := goalSet(env)[name]
		t.Run(name, func(t *testing.T) {
			prob := graph.NewProblem(env, goal)
			cached, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewTranspositionCache()
			var rec PendingSuffixes
			sampler := workload.NewSampler(env.Templates, 71)
			hits := 0
			for trial := 0; trial < 40; trial++ {
				w := sampler.Uniform(7)
				got, err := cached.Solve(w, Options{Cache: cache, Record: &rec})
				if err != nil {
					t.Fatal(err)
				}
				cache.Commit(&rec)
				want, err := fresh.Solve(w, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got.Cost-want.Cost) > 1e-6 {
					t.Fatalf("trial %d: cached search %.9f, uncached %.9f", trial, got.Cost, want.Cost)
				}
				sched := got.Schedule()
				if err := sched.Validate(env, w); err != nil {
					t.Fatalf("trial %d: stitched schedule invalid: %v", trial, err)
				}
				if c := sched.Cost(env, goal); math.Abs(c-got.Cost) > 1e-6 {
					t.Fatalf("trial %d: stitched schedule costs %.9f, search reported %.9f", trial, c, got.Cost)
				}
				hits += got.CacheHits
			}
			if hits == 0 {
				t.Fatal("40 same-environment samples produced no cache hits; cross-sample reuse is broken")
			}
			if cache.Len() == 0 {
				t.Fatal("no suffixes were recorded")
			}
		})
	}
}

// The cache must be ignored for refundable-penalty goals (Average,
// Percentile). Why it is pinned off rather than supported: the suffix cost
// stored for a signature is only valid for states whose accumulator matches
// it exactly, and under refundable penalties the accumulator signature
// embeds the full penalty-relevant history (query count and latency sum,
// or the sorted violation vector) — so a cross-search hit would require an
// identical penalty history, which the per-search intern table already
// deduplicates, while every generated edge would pay a lookup. Worse, the
// Percentile search prunes by Pareto dominance, whose ĝ = g − p(state)
// comparisons assume kept states may still refund penalty through future
// placements; a stitched suffix fixes those placements and breaks the
// dominance argument. Solve therefore never consults or populates the
// cache for non-monotonic goals, and results must match the uncached
// search exactly.
func TestTranspositionCacheDisabledForRefundableGoals(t *testing.T) {
	env := testEnv(4, 1)
	for _, name := range []string{"average", "percentile"} {
		goal := goalSet(env)[name]
		t.Run(name, func(t *testing.T) {
			prob := graph.NewProblem(env, goal)
			s, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewTranspositionCache()
			var rec PendingSuffixes
			sampler := workload.NewSampler(env.Templates, 13)
			for trial := 0; trial < 6; trial++ {
				w := sampler.Uniform(6)
				res, err := s.Solve(w, Options{Cache: cache, Record: &rec})
				if err != nil {
					t.Fatal(err)
				}
				cache.Commit(&rec)
				if res.CacheHits != 0 || res.CacheMisses != 0 {
					t.Fatalf("trial %d: non-monotonic search consulted the cache (%d hits, %d misses)", trial, res.CacheHits, res.CacheMisses)
				}
				want, err := s.Solve(w, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(res.Cost-want.Cost) > 1e-9 {
					t.Fatalf("trial %d: cache changed a refundable-penalty optimum: %.9f vs %.9f", trial, res.Cost, want.Cost)
				}
			}
			if n := cache.Len(); n != 0 {
				t.Fatalf("non-monotonic searches recorded %d suffixes; want 0", n)
			}
		})
	}
}

// The canonical merge must be order-independent: committing equal-cost
// suffixes in either order leaves the lexicographically least one, and a
// cheaper suffix always wins.
func TestTranspositionCanonicalMerge(t *testing.T) {
	sig := []byte("state-key")
	a := []graph.Action{{Kind: graph.Place, Template: 0}, {Kind: graph.Place, Template: 2}}
	b := []graph.Action{{Kind: graph.Place, Template: 1}, {Kind: graph.Place, Template: 0}}
	for _, order := range [][2][]graph.Action{{a, b}, {b, a}} {
		cache := NewTranspositionCache()
		var rec PendingSuffixes
		rec.add(sig, 5.0, order[0])
		cache.Commit(&rec)
		rec.add(sig, 5.0, order[1])
		cache.Commit(&rec)
		e, ok := cache.lookupHash(sig, hashSig(sig))
		if !ok {
			t.Fatal("entry missing after commits")
		}
		if len(e.actions) != 2 || e.actions[0].Template != 0 {
			t.Fatalf("equal-cost merge kept %v; want the lexicographically least suffix (T0 first)", e.actions)
		}
	}
	cache := NewTranspositionCache()
	var rec PendingSuffixes
	rec.add(sig, 5.0, a)
	rec.add(sig, 3.0, b)
	cache.Commit(&rec)
	if e, _ := cache.lookupHash(sig, hashSig(sig)); e.cost != 3.0 || e.actions[0].Template != 1 {
		t.Fatalf("cheaper suffix lost the merge: %+v", e)
	}
	if rec.Len() != 0 {
		t.Fatal("Commit must empty the pending buffer")
	}
}

// A search hitting the cache at the start vertex must return the stored
// optimum immediately, with zero expansions.
func TestTranspositionFullWorkloadHit(t *testing.T) {
	env := testEnv(4, 1)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	prob := graph.NewProblem(env, goal)
	s, err := New(prob)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewTranspositionCache()
	var rec PendingSuffixes
	w := workload.NewSampler(env.Templates, 3).Uniform(8)
	first, err := s.Solve(w, Options{Cache: cache, Record: &rec})
	if err != nil {
		t.Fatal(err)
	}
	cache.Commit(&rec)
	again, err := s.Solve(w, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if again.Expanded != 0 {
		t.Fatalf("re-solving a fully cached workload expanded %d states; want 0", again.Expanded)
	}
	if math.Abs(again.Cost-first.Cost) > 1e-9 {
		t.Fatalf("cached re-solve cost %.9f, original %.9f", again.Cost, first.Cost)
	}
	if err := again.Schedule().Validate(env, w); err != nil {
		t.Fatalf("stitched schedule invalid: %v", err)
	}
	stats := cache.Stats()
	if stats.Hits == 0 || stats.Entries == 0 {
		t.Fatalf("stats did not register the hit: %+v", stats)
	}
}
