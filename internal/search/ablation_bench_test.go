package search

import (
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
