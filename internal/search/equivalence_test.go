package search

import (
	"math"
	"sync"
	"testing"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Cross-goal equivalence property test: the optimized searcher — arena
// states, bucket frontier, transposition cache where applicable — must
// agree with exhaustive enumeration (BruteForceCost) on randomized small
// workloads for all four goal families. The cached goals run their
// workloads concurrently against one shared Searcher and cache (commit
// barriers between rounds, like the training pool), so `go test -race`
// also exercises the cache's locking.
func TestOptimizedSearchMatchesBruteForceAllGoals(t *testing.T) {
	env := testEnv(3, 2)
	goals := goalSet(env)
	// A percentile goal tight enough that violations are unavoidable: with
	// the default goal dominance pruning (keyed on unassigned counts, open
	// VM type and wait only) never fires at this size, here it does, and
	// percentileBound's pigeonhole term is in play at every state.
	goals["percentile-tight"] = sla.NewPercentile(60, env.Templates[0].BaseLatency, env.Templates, sla.DefaultPenaltyRate)
	for name, goal := range goals {
		t.Run(name, func(t *testing.T) {
			prob := graph.NewProblem(env, goal)
			s, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewTranspositionCache()
			sampler := workload.NewSampler(env.Templates, 83)
			const rounds, perRound = 4, 6
			for round := 0; round < rounds; round++ {
				workloads := make([]*workload.Workload, perRound)
				want := make([]float64, perRound)
				for i := range workloads {
					workloads[i] = sampler.Uniform(5)
					want[i] = BruteForceCost(prob, workloads[i])
				}
				pending := make([]PendingSuffixes, perRound)
				var wg sync.WaitGroup
				for i := range workloads {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						res, err := s.Solve(workloads[i], Options{Cache: cache, Record: &pending[i]})
						if err != nil {
							t.Errorf("round %d workload %d: %v", round, i, err)
							return
						}
						if math.Abs(res.Cost-want[i]) > 1e-6 {
							t.Errorf("round %d workload %d: optimized %.9f, brute force %.9f", round, i, res.Cost, want[i])
						}
						if err := res.Schedule().Validate(env, workloads[i]); err != nil {
							t.Errorf("round %d workload %d: invalid schedule: %v", round, i, err)
						}
					}(i)
				}
				wg.Wait()
				// The deterministic barrier of the training pool.
				for i := range pending {
					cache.Commit(&pending[i])
				}
			}
		})
	}
}
