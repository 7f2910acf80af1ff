package core

import (
	"context"
	"runtime"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// retrainScenarios are the two drift magnitudes a registry retrains
// across, at paper scale (N=500 samples of m=12 queries, the
// DefaultTrainConfig the experiments run with):
//
//   - steady: the common case after the first recovery — the detector
//     rebaselines on every swap, so successive retrains chase small mix
//     motion. Most per-query inverse-CDF draws are unchanged, so most
//     samples replay warm.
//   - jump: a large shift (toward 60% mass on one template). Nearly every
//     sample redraws differently, so the warm path degrades toward the
//     cold cost — this is the warm path's worst case, not its pitch.
var retrainScenarios = []struct {
	name      string
	prior, to []float64
}{
	{"steady", []float64{0.3, 0.25, 0.2, 0.15, 0.1}, []float64{0.31, 0.24, 0.21, 0.14, 0.1}},
	{"jump", []float64{0.2, 0.2, 0.2, 0.2, 0.2}, []float64{0.1, 0.1, 0.1, 0.1, 0.6}},
}

// benchRetrainEpoch trains the serving epoch a drift retrain replaces.
func benchRetrainEpoch(b testing.TB, prior []float64) *ModelEpoch {
	b.Helper()
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	cfg := DefaultTrainConfig()
	cfg.Seed = 17
	cfg.KeepTrainingData = true
	cfg.SampleWeights = prior
	base, err := MustNewAdvisor(env, cfg).Train(goal)
	if err != nil {
		b.Fatal(err)
	}
	return &ModelEpoch{Model: base, Epoch: 1, Mix: base.TrainingMix()}
}

// BenchmarkColdRetrain measures the pre-warm-path drift response: every
// sample solved from scratch against an empty transposition cache. This is
// the baseline the warm path is compared to; both produce bit-identical
// models.
func BenchmarkColdRetrain(b *testing.B) {
	for _, sc := range retrainScenarios {
		b.Run(sc.name, func(b *testing.B) {
			cur := benchRetrainEpoch(b, sc.prior)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ColdDriftRetrain(ctx, cur, sc.to); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWarmRetrain measures the default drift response: cross-epoch
// cache seeding plus sample-level replay (see WarmTrain). The reported
// warm_samples and cache_hit_rate metrics show where the speedup over
// BenchmarkColdRetrain comes from.
func BenchmarkWarmRetrain(b *testing.B) {
	for _, sc := range retrainScenarios {
		b.Run(sc.name, func(b *testing.B) {
			cur := benchRetrainEpoch(b, sc.prior)
			ctx := context.Background()
			var last *Model
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := DriftRetrain(ctx, cur, sc.to)
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.StopTimer()
			if last != nil {
				b.ReportMetric(float64(last.WarmSamples), "warm_samples")
				if total := last.TrainingCacheHits + last.TrainingCacheMisses; total > 0 {
					b.ReportMetric(float64(last.TrainingCacheHits)/float64(total), "cache_hit_rate")
				}
			}
		})
	}
}

// driftRetrainByteBound caps what one steady drift retrain at paper scale
// may allocate: the least of five DriftRetrain calls of retrainScenarios[0]
// stays under it. A build allocates per distinct training row and per
// moved sample, not per path step or per row, and a warm retrain copies
// nothing it only reads: 0.44 MB at two workers on linux/amd64, where
// building a workload for every unchanged draw, starting each walk from a
// heap state, re-recording the suffixes the cache holds and regrowing the
// record buffers in every build took 0.74 MB (cloning the prior epoch's
// cache and copying each replayed path twice 1.43 MB before that, and
// walking each answer's path through heap States and listing every row in
// the dataset 3.66 MB before that). The bound is 1.6 times the least
// measured.
const driftRetrainByteBound = 691 << 10

// TestDriftRetrainAllocBound pins driftRetrainByteBound. It skips under the
// race detector, whose instrumentation allocates.
func TestDriftRetrainAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound is meaningless under the race detector")
	}
	sc := retrainScenarios[0]
	cur := benchRetrainEpoch(t, sc.prior)
	// Two workers on every machine: each worker refills pooled search
	// arenas of its own, so a retrain's bytes grow with the worker count.
	cur.Model.TrainingConfig.Parallelism = 2
	ctx := context.Background()
	// The least of a few runs: a background GC cycle can only add.
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		if _, err := DriftRetrain(ctx, cur, sc.to); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("least of 5 steady drift retrains: %d bytes", least)
	if least > driftRetrainByteBound {
		t.Fatalf("a steady drift retrain allocated %d bytes, want at most %d", least, driftRetrainByteBound)
	}
}
