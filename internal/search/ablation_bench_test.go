package search

import (
	"fmt"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Ablation benchmarks for the search-strengthening design choices in
// DESIGN.md: run with
//
//	go test -bench=Ablation ./internal/search -benchmem
//
// and compare the pair (fresh vs adaptive).

func benchEnv(numTemplates int) *schedule.Env {
	return schedule.NewEnv(workload.DefaultTemplates(numTemplates), cloud.DefaultVMTypes(1))
}

func benchSolve(b *testing.B, prob *graph.Problem, m int) {
	b.Helper()
	s, err := New(prob)
	if err != nil {
		b.Fatal(err)
	}
	w := workload.NewSampler(prob.Env.Templates, 1).Uniform(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(w, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFreshSearch solves a tightened-goal instance from
// scratch; compare with BenchmarkAblationAdaptiveSearch for §5's reuse.
func BenchmarkAblationFreshSearch(b *testing.B) {
	env := benchEnv(10)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	benchSolve(b, graph.NewProblem(env, goal.Tighten(0.4)), 14)
}

// BenchmarkAblationAdaptiveSearch solves the same tightened instance with
// adaptive-A* reuse from the original goal's search.
func BenchmarkAblationAdaptiveSearch(b *testing.B) {
	env := benchEnv(10)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	w := workload.NewSampler(env.Templates, 1).Uniform(14)
	base, err := New(graph.NewProblem(env, goal))
	if err != nil {
		b.Fatal(err)
	}
	orig, err := base.Solve(w, Options{KeepClosed: true})
	if err != nil {
		b.Fatal(err)
	}
	reuse := ReuseFrom(orig)
	tight, err := New(graph.NewProblem(env, goal.Tighten(0.4)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tight.Solve(w, Options{Reuse: reuse}); err != nil {
			b.Fatal(err)
		}
	}
}

// servingSample returns training sample i of the serving model — 12 queries
// drawn uniformly over 5 templates from the sub-seed core's Train derives
// for (Seed 1, sample i), a SplitMix64 finalizer — so the benchmarks below
// solve the workloads a stream's ω-map builds re-solve.
func servingSample(templates []workload.Template, i int) *workload.Workload {
	z := uint64(1) + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return workload.NewSampler(templates, int64(z^(z>>31))).Uniform(12)
}

// benchServingShift is §5 reuse in the regime where it ships (§6.3's ω-map
// builds): 5 templates, 2 VM types, m = 12, Max 15 min shifted by a small,
// a middle and the largest wait of the stream-backlog fill, over the first
// 32 training samples — one cache generation, so the cache each build
// starts with is empty for every sample and states/sample (the lookups of
// that empty cache: every generated state that survived dedupe) is a pure
// function of the sample and the heuristic.
func benchServingShift(b *testing.B, adaptive bool) {
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	base, err := New(graph.NewProblem(env, goal))
	if err != nil {
		b.Fatal(err)
	}
	const n = 32
	workloads := make([]*workload.Workload, n)
	reuse := make([]*Reuse, n)
	for i := range workloads {
		workloads[i] = servingSample(env.Templates, i)
		if adaptive {
			orig, err := base.Solve(workloads[i], Options{KeepClosed: true})
			if err != nil {
				b.Fatal(err)
			}
			reuse[i] = ReuseFrom(orig)
		}
	}
	for _, wait := range []time.Duration{30 * time.Second, 5*time.Minute + 30*time.Second, 11*time.Minute + 30*time.Second} {
		b.Run(fmt.Sprintf("shift=%v", wait), func(b *testing.B) {
			shifted, err := New(graph.NewProblem(env, goal.Shift(wait)))
			if err != nil {
				b.Fatal(err)
			}
			empty := NewTranspositionCache()
			states := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				states = 0
				for j, w := range workloads {
					res, err := shifted.Solve(w, Options{Reuse: reuse[j], Cache: empty})
					if err != nil {
						b.Fatal(err)
					}
					states += res.CacheMisses
				}
			}
			b.ReportMetric(float64(states)/n, "states/sample")
		})
	}
}

// BenchmarkAblationFreshSearchServing and
// BenchmarkAblationAdaptiveSearchServing are the fresh/adaptive pair at the
// serving shape; see benchServingShift.
func BenchmarkAblationFreshSearchServing(b *testing.B)    { benchServingShift(b, false) }
func BenchmarkAblationAdaptiveSearchServing(b *testing.B) { benchServingShift(b, true) }
