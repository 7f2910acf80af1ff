package search

import (
	"math/rand"
	"reflect"
	"testing"

	"wisedb/internal/graph"
	"wisedb/internal/workload"
)

// Monotonic, unseeded searches are canonical: the returned action sequence
// must be a pure function of (problem, workload), no matter what
// transposition cache or adaptive-reuse heuristic accelerated the search.
// This is the property the warm retrain path rests on — a retrain seeded
// with a prior epoch's cache and Closed sets must reproduce the cold
// retrain's model bit for bit.
func TestCanonicalInvariantToCacheAndReuse(t *testing.T) {
	env := testEnv(6, 2)
	goals := goalSet(env)
	for _, name := range []string{"max", "perquery"} {
		goal := goals[name]
		t.Run(name, func(t *testing.T) {
			prob := graph.NewProblem(env, goal)
			s, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			sampler := workload.NewSampler(env.Templates, 23)
			workloads := make([]*workload.Workload, 8)
			for i := range workloads {
				workloads[i] = sampler.Uniform(4 + rand.New(rand.NewSource(int64(i))).Intn(8))
			}

			// Baseline: cold, cache-free solves.
			base := make([]*Result, len(workloads))
			for i, w := range workloads {
				r, err := s.Solve(w, Options{KeepClosed: true})
				if err != nil {
					t.Fatal(err)
				}
				base[i] = r
			}

			check := func(label string, i int, r *Result) {
				t.Helper()
				if !reflect.DeepEqual(r.Actions, base[i].Actions) {
					t.Fatalf("%s: workload %d actions diverged from the cold cache-free solve\ncold: %v\ngot:  %v", label, i, base[i].Actions, r.Actions)
				}
			}

			// A shared cache populated in workload order: later solves see
			// earlier suffixes yet must return identical actions.
			cache := NewTranspositionCache()
			var pend PendingSuffixes
			for i, w := range workloads {
				r, err := s.Solve(w, Options{Cache: cache, Record: &pend})
				if err != nil {
					t.Fatal(err)
				}
				cache.Commit(&pend)
				check("warming cache", i, r)
			}

			// A fully warmed cache, including each workload's own start
			// signature: solves stitch aggressively (often expanding
			// nothing) and still must return identical actions.
			for i, w := range workloads {
				r, err := s.Solve(w, Options{Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				check("warm cache", i, r)
			}

			// The cache after an Export/Import round trip (how it travels
			// across epochs and checkpoints).
			imported := NewTranspositionCache()
			imported.Import(cache.Export(0))
			for i, w := range workloads {
				r, err := s.Solve(w, Options{Cache: imported})
				if err != nil {
					t.Fatal(err)
				}
				check("imported cache", i, r)
			}

			// Adaptive reuse of each workload's own prior solve (the §5
			// replay a warm retrain uses for unchanged samples), alone and
			// combined with the warm cache.
			for i, w := range workloads {
				reuse := ReuseFrom(base[i])
				r, err := s.Solve(w, Options{Reuse: reuse})
				if err != nil {
					t.Fatal(err)
				}
				check("reuse", i, r)
				r, err = s.Solve(w, Options{Reuse: reuse, Cache: cache})
				if err != nil {
					t.Fatal(err)
				}
				check("reuse+cache", i, r)
			}
		})
	}
}

// Export must be a canonical snapshot: signature-sorted, stable across
// commit histories, and round-trippable through Import without change.
func TestCacheExportImportRoundTrip(t *testing.T) {
	env := testEnv(5, 2)
	goal := goalSet(env)["max"]
	prob := graph.NewProblem(env, goal)
	s, err := New(prob)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewTranspositionCache()
	var pend PendingSuffixes
	sampler := workload.NewSampler(env.Templates, 41)
	for i := 0; i < 6; i++ {
		if _, err := s.Solve(sampler.Uniform(6), Options{Cache: cache, Record: &pend}); err != nil {
			t.Fatal(err)
		}
		cache.Commit(&pend)
	}
	exp := cache.Export(0)
	if len(exp) == 0 {
		t.Fatal("no entries exported after six recorded solves")
	}
	for i := 1; i < len(exp); i++ {
		if string(exp[i-1].Sig) >= string(exp[i].Sig) {
			t.Fatalf("export not strictly signature-sorted at %d", i)
		}
	}
	imported := NewTranspositionCache()
	imported.Import(exp)
	if !reflect.DeepEqual(imported.Export(0), exp) {
		t.Fatal("Export -> Import -> Export is not the identity")
	}
	// Derive shares contents but not counters or future commits.
	derived := cache.Derive()
	if !reflect.DeepEqual(derived.Export(0), exp) {
		t.Fatal("Derive diverges from its source")
	}
	if got := derived.Stats(); got.Hits != 0 || got.Misses != 0 {
		t.Fatalf("Derive inherited counters: %+v", got)
	}
	// Truncated exports are prefixes of the full sorted export.
	if got := cache.Export(3); len(got) != 3 || !reflect.DeepEqual(got, exp[:3]) {
		t.Fatalf("Export(3) is not the 3-entry sorted prefix")
	}
}

// A non-monotonic goal must ignore canonical machinery entirely and still
// solve exactly (guard against the canonical path leaking into
// branch-and-bound).
func TestNonMonotonicUnaffectedByCanonicalPath(t *testing.T) {
	env := testEnv(4, 2)
	for _, name := range []string{"average", "percentile"} {
		goal := goalSet(env)[name]
		prob := graph.NewProblem(env, goal)
		sampler := workload.NewSampler(env.Templates, 9)
		for trial := 0; trial < 4; trial++ {
			w := sampler.Uniform(5)
			res := solve(t, prob, w, Options{})
			want := BruteForceCost(prob, w)
			if diff := res.Cost - want; diff > 1e-6 || diff < -1e-6 {
				t.Fatalf("%s trial %d: cost %.9f, brute force %.9f", name, trial, res.Cost, want)
			}
		}
	}
}
