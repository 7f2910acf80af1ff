package search

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// InternTable must assign dense ids in first-seen order, return stable ids
// on re-interning, and survive a Reset with capacity intact.
func TestInternTable(t *testing.T) {
	tab := NewInternTable()
	sigs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for want, sig := range sigs {
		id, fresh := tab.Intern(sig)
		if !fresh || id != uint32(want) {
			t.Fatalf("Intern(%q) = (%d, %v), want (%d, true)", sig, id, fresh, want)
		}
	}
	if id, fresh := tab.Intern([]byte("bb")); fresh || id != 1 {
		t.Fatalf("re-Intern = (%d, %v), want (1, false)", id, fresh)
	}
	if _, ok := tab.Lookup([]byte("zz")); ok {
		t.Fatal("Lookup of unknown signature must miss")
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tab.Len())
	}
	tab.Reset()
	if tab.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", tab.Len())
	}
	if id, fresh := tab.Intern([]byte("ccc")); !fresh || id != 0 {
		t.Fatalf("Intern after Reset = (%d, %v), want (0, true)", id, fresh)
	}
}

// A Closed export must report exactly the recorded states and hide pruned
// (+Inf) ids.
func TestClosedLookup(t *testing.T) {
	tab := NewInternTable()
	tab.Intern([]byte("kept"))
	tab.Intern([]byte("pruned"))
	c := &Closed{Table: tab, G: []float64{7.5, math.Inf(1)}}
	if g, ok := c.Lookup([]byte("kept")); !ok || g != 7.5 {
		t.Fatalf("Lookup(kept) = (%v, %v), want (7.5, true)", g, ok)
	}
	if _, ok := c.Lookup([]byte("pruned")); ok {
		t.Fatal("pruned state must report as absent")
	}
	if c.Len() != 1 {
		t.Fatalf("Closed.Len = %d, want 1", c.Len())
	}
}

// One Searcher must serve many concurrent Solve calls (the training worker
// pool runs one per worker): run with -race, and every concurrent result
// must match its sequential counterpart exactly.
func TestConcurrentSolveSharedSearcher(t *testing.T) {
	env := testEnv(4, 2)
	for name, goal := range goalSet(env) {
		t.Run(name, func(t *testing.T) {
			prob := graph.NewProblem(env, goal)
			s, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			const nWorkloads = 12
			sampler := workload.NewSampler(env.Templates, 61)
			workloads := make([]*workload.Workload, nWorkloads)
			want := make([]float64, nWorkloads)
			for i := range workloads {
				workloads[i] = sampler.Uniform(6)
				res, err := s.Solve(workloads[i], Options{})
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res.Cost
			}
			var wg sync.WaitGroup
			for i := range workloads {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := s.Solve(workloads[i], Options{KeepClosed: true})
					if err != nil {
						t.Errorf("workload %d: %v", i, err)
						return
					}
					if math.Abs(res.Cost-want[i]) > 1e-9 {
						t.Errorf("workload %d: concurrent cost %f, sequential %f", i, res.Cost, want[i])
					}
					if res.Closed == nil || res.Closed.Len() == 0 {
						t.Errorf("workload %d: KeepClosed produced no closed set", i)
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

// Searches must stay exact across repeated Solve calls on one Searcher: the
// arena reuse between calls must not leak state from one search into the
// next (same workload re-solved interleaved with others must give the same
// cost every time).
func TestArenaReuseAcrossSearches(t *testing.T) {
	env := testEnv(3, 1)
	goal := sla.NewPercentile(90, 10*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	s, err := New(graph.NewProblem(env, goal))
	if err != nil {
		t.Fatal(err)
	}
	sampler := workload.NewSampler(env.Templates, 23)
	type run struct {
		w    *workload.Workload
		cost float64
	}
	var runs []run
	for i := 0; i < 6; i++ {
		w := sampler.Uniform(6)
		res, err := s.Solve(w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{w: w, cost: res.Cost})
	}
	for round := 0; round < 3; round++ {
		for i, r := range runs {
			res, err := s.Solve(r.w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Cost-r.cost) > 1e-9 {
				t.Fatalf("round %d workload %d: cost drifted %f -> %f", round, i, r.cost, res.Cost)
			}
		}
	}
}

// The per-expansion allocation volume must stay bounded: interning plus
// arena reuse is the whole point of the refactor, so guard against the
// string-per-edge pattern creeping back in.
func TestSolveAllocationsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI's allocation-pin step runs this without it")
	}
	env := testEnv(5, 1)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	s, err := New(graph.NewProblem(env, goal))
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewSampler(env.Templates, 3).Uniform(10)
	// Warm the arena pool, then measure steady-state searches.
	if _, err := s.Solve(w, Options{}); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Solve(w, Options{})
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := s.Solve(w, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs for %d expansions, path length %d", allocs, res.Expanded, len(res.Actions))
	// Steady-state expansion is allocation-free: states, nodes, path keys,
	// signatures, and frontier slots all come from the pooled arena, so the
	// per-solve allocations are proportional to the returned path (replaying each
	// step allocates the exact-accumulator state: the state struct, two
	// slices, and for some goals an accumulator box), never to the states
	// expanded. The budget is a path-proportional allowance plus a small
	// fixed overhead (Result, action/step slices); any per-expansion
	// allocation creeping back in blows it immediately.
	if budget := float64(5*len(res.Actions) + 16); allocs > budget {
		t.Errorf("%.0f allocations for a %d-step path; want <= %.0f (arena regression?)", allocs, len(res.Actions), budget)
	}
}

// A path-free search and walk start on the search arena (graph.StartArena)
// with the searcher's shared empty accumulator, and every later state of a
// history-free walk lives there too. So a WithoutPaths Solve allocates its
// Result and the Actions it decodes, and a Replay its Result — whatever the
// path length and however many states the search expanded. The replay
// records into a buffer bound to a cache that holds the path already, so
// the check that skips those records is pinned with it.
func TestPathFreeAllocationsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pool at random; CI's allocation-pin step runs this without it")
	}
	const solveAllocs, replayAllocs = 2, 1
	env := testEnv(5, 2)
	for _, name := range []string{"max", "perquery"} {
		s, err := New(graph.NewProblem(env, goalSet(env)[name]))
		if err != nil {
			t.Fatal(err)
		}
		s = s.WithoutPaths()
		cache := NewTranspositionCache()
		var rec PendingSuffixes
		rec.Into(cache)
		for _, m := range []int{2, 4, 8, 12} {
			w := workload.NewSampler(env.Templates, 3).Uniform(m)
			res, err := s.Solve(w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Replay(w, res.Actions, res.Cost, &rec); err != nil {
				t.Fatal(err)
			}
			cache.Commit(&rec)
			solve := testing.AllocsPerRun(100, func() {
				if _, err := s.Solve(w, Options{}); err != nil {
					t.Fatal(err)
				}
			})
			replay := testing.AllocsPerRun(100, func() {
				if _, err := s.Replay(w, res.Actions, res.Cost, &rec); err != nil {
					t.Fatal(err)
				}
				if rec.Len() != 0 {
					t.Fatalf("%s m=%d: a replay of a held path buffered %d records", name, m, rec.Len())
				}
				cache.Commit(&rec)
			})
			t.Logf("%s m=%d: %d-step path, %d expansions: Solve %.0f, Replay %.0f allocations", name, m, len(res.Actions), res.Expanded, solve, replay)
			if solve > solveAllocs || replay > replayAllocs {
				t.Errorf("%s m=%d: Solve %.0f and Replay %.0f allocations, want at most %d and %d", name, m, solve, replay, solveAllocs, replayAllocs)
			}
		}
	}
}

func BenchmarkSolveTrainingSample(b *testing.B) {
	env := testEnv(10, 1)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	prob := graph.NewProblem(env, goal)
	s, err := New(prob)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{8, 12} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			w := workload.NewSampler(env.Templates, 5).Uniform(m)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(w, Options{KeepClosed: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
