package core

import (
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// BenchmarkShiftedModelFill measures what a cold online engine pays per
// entry of its ω-map (§6.3): one ShiftedModel build of the serving model
// (5 templates, 2 VM types, Max 15 min, DefaultTrainConfig: N=500, m=12) at
// a small, a middle and the largest wait of the stream-backlog fill. Each
// build re-solves all 500 retained samples with §5 reuse and a fresh
// transposition cache, then fits and compiles a tree. states/build counts
// the states the searches generated past dedupe (one cache lookup each, so
// TrainingCacheHits + TrainingCacheMisses).
func BenchmarkShiftedModelFill(b *testing.B) {
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	base, err := MustNewAdvisor(env, DefaultTrainConfig()).Train(goal)
	if err != nil {
		b.Fatal(err)
	}
	waits := []time.Duration{30 * time.Second, 5*time.Minute + 30*time.Second, 11*time.Minute + 30*time.Second}
	states := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states = 0
		for _, w := range waits {
			m, err := base.ShiftedModel(w)
			if err != nil {
				b.Fatal(err)
			}
			states += m.TrainingCacheHits + m.TrainingCacheMisses
		}
	}
	builds := float64(len(waits))
	b.ReportMetric(float64(states)/builds, "states/build")
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N)/builds, "ms/build")
}
