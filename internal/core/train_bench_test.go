package core

import (
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// BenchmarkTrainNonMonotonic measures Advisor.Train for the two goal
// families no transposition cache serves, at the shapes the train-adapt
// workload trains them (5 templates, 2 VM types, N = 250; m = 9 for
// Average, 10 for Percentile). searches/op counts the A* searches a
// training ran: one per distinct start state, fewer than N wherever sample
// workloads repeat template counts.
func BenchmarkTrainNonMonotonic(b *testing.B) {
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	for _, c := range []struct {
		name string
		goal sla.Goal
		m    int
	}{
		{"average", sla.NewAverage(10*time.Minute, env.Templates, sla.DefaultPenaltyRate), 9},
		{"percentile", sla.NewPercentile(90, 10*time.Minute, env.Templates, sla.DefaultPenaltyRate), 10},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultTrainConfig()
			cfg.NumSamples, cfg.SampleSize = 250, c.m
			adv := MustNewAdvisor(env, cfg)
			searches := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := adv.Train(c.goal)
				if err != nil {
					b.Fatal(err)
				}
				searches = m.searches
			}
			b.ReportMetric(float64(searches), "searches/op")
		})
	}
}
