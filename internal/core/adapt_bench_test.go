package core

import (
	"context"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// BenchmarkShiftedModelFill measures what a cold online engine pays to fill
// its ω-map (§6.3): the 23 ShiftedModel builds of the serving model
// (5 templates, 2 VM types, Max 15 min, DefaultTrainConfig: N=500, m=12)
// that the stream-backlog arrivals ask for, every multiple of 30 s up to
// 11 m 30 s, each built from the one before as the engine builds each from
// its nearest smaller neighbour. A build replays the samples whose solved
// path kept its cost under the longer wait and re-solves the rest with a
// fresh transposition cache, then fits and compiles a tree.
// replayed/build counts the former; states/build the states the searches
// of the latter generated past dedupe (one cache lookup each, so
// TrainingCacheHits + TrainingCacheMisses).
func BenchmarkShiftedModelFill(b *testing.B) {
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	base, err := MustNewAdvisor(env, DefaultTrainConfig()).Train(goal)
	if err != nil {
		b.Fatal(err)
	}
	const builds = 23
	states, replayed := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		states, replayed = 0, 0
		var near *Model
		for w := 1; w <= builds; w++ {
			m, err := base.shiftedFrom(context.Background(), time.Duration(w)*30*time.Second, near)
			if err != nil {
				b.Fatal(err)
			}
			states += m.TrainingCacheHits + m.TrainingCacheMisses
			replayed += m.WarmSamples
			near = m
		}
	}
	b.ReportMetric(float64(states)/builds, "states/build")
	b.ReportMetric(float64(replayed)/builds, "replayed/build")
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N)/builds, "ms/build")
}
