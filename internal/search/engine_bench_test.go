package search

import (
	"fmt"
	"testing"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// BenchmarkSolveExact measures the exact-optimum comparator configuration
// behind Figs. 9-13: no cache, sizes near the paper's 30-query evaluation
// workloads scaled to bench time. Track it to keep the "Optimal" columns of the evaluation
// affordable and the proven-optimum rate under the expansion cap high.
func BenchmarkSolveExact(b *testing.B) {
	env := testEnv(10, 1)
	cases := []struct {
		name string
		goal sla.Goal
		m    int
	}{
		{"max/m=16", sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate), 16},
		{"percentile/m=12", sla.NewPercentile(90, 10*time.Minute, env.Templates, sla.DefaultPenaltyRate), 12},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			s, err := New(graph.NewProblem(env, tc.goal))
			if err != nil {
				b.Fatal(err)
			}
			w := workload.NewSampler(env.Templates, 29).Uniform(tc.m)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := s.Solve(w, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Expanded), "expansions/op")
				}
			}
		})
	}
}

// BenchmarkTranspositionHitRate measures the training-path configuration:
// a stream of distinct sample workloads solved against one shared
// transposition cache with a commit after every solve, as the sequential
// training fold does. The reported hit rate is lookups answered from the
// cache; ns/op is the amortized per-sample search cost with cross-sample
// reuse — compare against BenchmarkSolveTrainingSample (no cache) for the
// reuse payoff.
func BenchmarkTranspositionHitRate(b *testing.B) {
	env := testEnv(10, 1)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	prob := graph.NewProblem(env, goal)
	for _, m := range []int{8, 12} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			s, err := New(prob)
			if err != nil {
				b.Fatal(err)
			}
			const distinct = 64
			workloads := make([]*workload.Workload, distinct)
			for i := range workloads {
				workloads[i] = workload.NewSampler(env.Templates, int64(1000+i)).Uniform(m)
			}
			cache := NewTranspositionCache()
			var rec PendingSuffixes
			hits, lookups := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Solve(workloads[i%distinct], Options{KeepClosed: true, Cache: cache, Record: &rec})
				if err != nil {
					b.Fatal(err)
				}
				cache.Commit(&rec)
				hits += res.CacheHits
				lookups += res.CacheHits + res.CacheMisses
			}
			b.StopTimer()
			if lookups > 0 {
				b.ReportMetric(float64(hits)/float64(lookups), "hitrate")
			}
			b.ReportMetric(float64(cache.Len()), "entries")
		})
	}
}
