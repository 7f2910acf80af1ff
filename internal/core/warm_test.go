package core

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// warmTrainConfig is the shared scale for warm-retrain tests: big enough
// that the transposition cache and sample replay both engage — 80 samples
// are three 32-sample cache generations, so lookups at Parallelism 4 run
// after two commit barriers, the only place the lock-free cache's
// single-writer contract can fail under -race — small enough for unit-test
// time.
func warmTrainConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 80
	cfg.SampleSize = 6
	cfg.Seed = 11
	cfg.KeepTrainingData = true
	return cfg
}

// contentHash returns the model's parallelism-independent content hash.
func contentHash(t *testing.T, m *Model) uint64 {
	t.Helper()
	_, hash, err := encodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return hash
}

// The warm-retrain identity pin: for every goal family, a warm retrain
// must produce a model whose serving content is bit-identical to a cold
// retrain of the same configuration — at any parallelism. Monotonic goals
// take the warm path (cache + replay); Average and Percentile must fall
// back to cold, which satisfies the identity trivially but must still be
// counted as cold.
func TestWarmRetrainMatchesCold(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	cfg := warmTrainConfig()
	mix := []float64{0.5, 0.3, 0.1, 0.1}
	ctx := context.Background()
	for name, goal := range testGoals(env) {
		t.Run(name, func(t *testing.T) {
			base, err := MustNewAdvisor(env, cfg).Train(goal)
			if err != nil {
				t.Fatal(err)
			}
			driftCfg := cfg
			driftCfg.SampleWeights = mix
			driftCfg.Parallelism = 1
			cold, err := MustNewAdvisor(env, driftCfg).TrainContext(ctx, goal)
			if err != nil {
				t.Fatal(err)
			}
			coldHash := contentHash(t, cold)
			for _, p := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				pcfg := driftCfg
				pcfg.Parallelism = p
				warm, err := MustNewAdvisor(env, pcfg).WarmTrainContext(ctx, goal, base)
				if err != nil {
					t.Fatal(err)
				}
				if got := contentHash(t, warm); got != coldHash {
					t.Fatalf("P=%d: warm retrain content hash %016x, cold %016x", p, got, coldHash)
				}
				if warm.Dump() != cold.Dump() {
					t.Fatalf("P=%d: warm and cold trees differ", p)
				}
				if warm.WarmSamples+warm.ColdSamples != cfg.NumSamples {
					t.Fatalf("P=%d: warm/cold split %d+%d != %d samples",
						p, warm.WarmSamples, warm.ColdSamples, cfg.NumSamples)
				}
				if !goal.Monotonic() && warm.WarmSamples != 0 {
					t.Fatalf("P=%d: non-monotonic goal replayed %d samples warm", p, warm.WarmSamples)
				}
			}
		})
	}
	// The same pin where it used to break: N = 500, m = 12, 5 templates
	// (the families that take the warm path; the others are cold trains).
	for _, name := range []string{"max", "perquery"} {
		t.Run(name+"-serving-scale", func(t *testing.T) { warmMatchesColdAtServingScale(t, name) })
	}
}

// Between two nearby weighted mixes — the shape of successive drift
// retrains — most per-query inverse-CDF draws are unchanged, so the warm
// path must actually replay samples, not just stay correct. A replayed
// sample keeps the prior's workload object; a moved one builds its own.
func TestWarmRetrainReplaysUnchangedSamples(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*60e9, env.Templates, sla.DefaultPenaltyRate)
	cfg := warmTrainConfig()
	cfg.SampleWeights = []float64{0.4, 0.3, 0.2, 0.1}
	prior, err := MustNewAdvisor(env, cfg).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	next := cfg
	next.SampleWeights = []float64{0.42, 0.28, 0.2, 0.1}
	warm, err := MustNewAdvisor(env, next).WarmTrainContext(context.Background(), goal, prior)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmSamples == 0 {
		t.Fatal("no samples replayed warm between adjacent mixes")
	}
	shared := 0
	for i, s := range warm.samples {
		p := prior.samples[i]
		if s.w == p.w {
			shared++
		} else if sameQueries(s.w, p.w) {
			t.Fatalf("sample %d drew the prior's queries into a workload of its own", i)
		}
	}
	if shared != warm.WarmSamples {
		t.Fatalf("%d samples share the prior's workload, %d replayed", shared, warm.WarmSamples)
	}
	cold, err := MustNewAdvisor(env, next).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	if contentHash(t, warm) != contentHash(t, cold) {
		t.Fatal("warm retrain with sample replay diverged from cold")
	}
	t.Logf("replayed %d/%d samples warm", warm.WarmSamples, cfg.NumSamples)
}

// The transposition cache must survive the checkpoint round trip intact —
// a warm-started registry retrains warm from the decoded snapshot — and a
// model loaded through an advisor (which re-binds it to the advisor's live
// environment) must stay warm-eligible.
func TestWarmCacheSurvivesCheckpoint(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*60e9, env.Templates, sla.DefaultPenaltyRate)
	cfg := warmTrainConfig()
	adv := MustNewAdvisor(env, cfg)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	if m.searchCache == nil || m.searchCache.Len() == 0 {
		t.Fatal("trained model carries no search cache")
	}
	data, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := decodeModel(data, env)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.searchCache == nil {
		t.Fatal("decoded model lost its search cache")
	}
	want := m.searchCache.Export(maxPersistedCacheEntries)
	got := loaded.searchCache.Export(maxPersistedCacheEntries)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cache snapshot changed across the round trip: %d entries in, %d out", len(want), len(got))
	}
	if !adv.warmEligible(goal, loaded) {
		t.Fatal("model loaded from a checkpoint is not warm-eligible")
	}
	warm, err := adv.WarmTrainContext(context.Background(), goal, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if contentHash(t, warm) != contentHash(t, m) {
		t.Fatal("warm retrain from the decoded model diverged")
	}
}

// Warm retrains racing hot swaps, concurrent stats reads, and each other:
// run with -race this pins that the warm path shares no mutable state with
// the serving epoch it warms from. (The registry admits one retrain at a
// time; rejected and suppressed triggers are part of the contract.)
func TestWarmRetrainDuringHotSwaps(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*60e9, env.Templates, sla.DefaultPenaltyRate)
	cfg := warmTrainConfig()
	cfg.NumSamples = 16
	cfg.SampleSize = 5
	base, err := MustNewAdvisor(env, cfg).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	r := NewModelRegistry(base)
	ctx := context.Background()

	// One deterministic success first, so counter assertions can't race a
	// fully suppressed hammer.
	if err := r.RetrainNow(ctx, []float64{0.6, 0.3, 0.1}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(k)))
			for i := 0; i < 4; i++ {
				mix := []float64{0.2 + 0.6*rng.Float64(), 0.2, 0.2}
				total := mix[0] + mix[1] + mix[2]
				for j := range mix {
					mix[j] /= total
				}
				// In-flight and suppressed triggers are expected under
				// contention; real retrain failures are not.
				if err := r.RetrainNow(ctx, mix); err != nil &&
					err != errRetrainInFlight && err != errRetrainSuppressed {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.Swap(base, nil)
				_ = r.Current().Model
				_ = r.Stats()
			}
		}()
	}
	wg.Wait()
	r.Wait()
	s := r.Stats()
	if s.Swaps == 0 || s.WarmSamples+s.ColdSamples == 0 {
		t.Fatalf("hammer recorded nothing: %+v", s)
	}
	if s.TotalRetrainMS < 0 || s.LastRetrainMS < 0 {
		t.Fatalf("negative retrain timing: %+v", s)
	}
}

// A checkpoint encodes an epoch's sample paths and cache keys through
// read-only views while the next warm retrain is already replaying and
// re-searching from that same epoch: retrains here follow one another
// without waiting for the checkpoint between them. Under -race this pins
// that the views are sound; the last checkpoint must also be exactly what a
// quiescent encode of the serving model produces.
func TestCheckpointEncodesWhileNextRetrainRuns(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*60e9, env.Templates, sla.DefaultPenaltyRate)
	base, err := MustNewAdvisor(env, warmTrainConfig()).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewModelRegistry(base)
	if err := r.CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	const retrains = 6
	for i := 0; i < retrains; i++ {
		mix := []float64{0.40 + 0.01*float64(i), 0.35, 0.25 - 0.01*float64(i)}
		if err := r.RetrainNow(context.Background(), mix); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	if s := r.Stats(); s.Checkpoints != retrains+1 || s.CheckpointFailures != 0 || s.WarmSamples == 0 {
		t.Fatalf("want %d clean checkpoints and warm replays, got %+v", retrains+1, s)
	}
	_, stored, err := ms.Latest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeModel(r.Current().Model)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, want) {
		t.Fatal("checkpoint written during the next retrain differs from a quiescent encode")
	}
	if s := r.Stats(); s.LastCheckpointBytes != int64(len(stored)) || s.CheckpointNanos <= 0 {
		t.Fatalf("the last checkpoint is %d bytes; Stats reports %d bytes and %d ns over all of them", len(stored), s.LastCheckpointBytes, s.CheckpointNanos)
	}
}

// A published model's cache has readers only, and they overlap: a background
// checkpoint Exports it while a warm retrain Derives from it and /stats reads
// its counters. The cache takes no lock, so -race on exactly this is the
// guard.
func TestTrainedCacheConcurrentReaders(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*60e9, env.Templates, sla.DefaultPenaltyRate)
	m, err := MustNewAdvisor(env, warmTrainConfig()).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	cache := m.searchCache
	want := cache.Export(0)
	if len(want) == 0 {
		t.Fatal("trained model carries an empty cache")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := cache.Derive().Export(0); !reflect.DeepEqual(got, want) {
					t.Error("Derive taken beside other readers diverges from its source")
					return
				}
				if got := cache.Export(maxPersistedCacheEntries); !reflect.DeepEqual(got, want[:len(got)]) {
					t.Error("Export beside other readers diverges")
					return
				}
				if cache.Stats().Entries != len(want) {
					t.Error("Stats beside other readers miscounts entries")
					return
				}
			}
		}()
	}
	wg.Wait()
}
