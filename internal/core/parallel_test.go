package core

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// trainWithParallelism trains one model at the given worker count, all other
// configuration held fixed.
func trainWithParallelism(t *testing.T, parallelism int) *Model {
	t.Helper()
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 80
	cfg.SampleSize = 7
	cfg.Seed = 42
	cfg.Parallelism = parallelism
	adv := MustNewAdvisor(env, cfg)
	m, err := adv.Train(sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Training must be bit-identical for every worker count: per-sample
// sub-seeds make sample i the same workload no matter which worker draws
// it, results fold into the training set in sample order, and the
// transposition cache (enabled by default here) publishes suffixes only at
// generation barriers, so which searches hit the cache is also independent
// of scheduling — pinned by comparing the hit counters, not just the trees.
func TestTrainParallelDeterminism(t *testing.T) {
	base := trainWithParallelism(t, 1)
	if base.TrainingCacheHits == 0 {
		t.Error("sequential training recorded no transposition-cache hits; cross-sample reuse is broken")
	}
	for _, p := range []int{4, runtime.GOMAXPROCS(0)} {
		m := trainWithParallelism(t, p)
		if m.TrainingRows != base.TrainingRows {
			t.Fatalf("parallelism %d: %d training rows, sequential built %d", p, m.TrainingRows, base.TrainingRows)
		}
		if got, want := m.Dump(), base.Dump(); got != want {
			t.Errorf("parallelism %d: tree differs from sequential run\nsequential:\n%s\nparallel:\n%s", p, want, got)
		}
		if m.TrainingCacheHits != base.TrainingCacheHits || m.TrainingCacheMisses != base.TrainingCacheMisses {
			t.Errorf("parallelism %d: cache counters (%d hits, %d misses) differ from sequential (%d, %d)",
				p, m.TrainingCacheHits, m.TrainingCacheMisses, base.TrainingCacheHits, base.TrainingCacheMisses)
		}
	}
}

// Adaptive re-training must also be deterministic across worker counts.
func TestAdaptParallelDeterminism(t *testing.T) {
	var dumps []string
	for _, p := range []int{1, 4} {
		m := trainWithParallelism(t, p)
		adapted, err := m.Tighten(0.3)
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, adapted.Dump())
	}
	if dumps[0] != dumps[1] {
		t.Errorf("adapted tree differs between 1 and 4 workers\nworkers=1:\n%s\nworkers=4:\n%s", dumps[0], dumps[1])
	}
}

// One trained Model must serve batch scheduling from many goroutines at
// once: run with -race, every goroutine must produce the exact schedule the
// sequential call produces.
func TestModelConcurrentScheduling(t *testing.T) {
	m := trainWithParallelism(t, 0)
	sampler := workload.NewSampler(m.Env().Templates, 99)
	workloads := make([]*workload.Workload, 8)
	want := make([]string, len(workloads))
	for i := range workloads {
		workloads[i] = sampler.Uniform(30)
		sched, err := m.ScheduleBatch(workloads[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sched.String()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4*len(workloads))
	for round := 0; round < 4; round++ {
		for i := range workloads {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sched, err := m.ScheduleBatch(workloads[i])
				if err != nil {
					errs <- err
					return
				}
				if got := sched.String(); got != want[i] {
					t.Errorf("workload %d: concurrent schedule %s, sequential %s", i, got, want[i])
				}
				if err := sched.Validate(m.Env(), workloads[i]); err != nil {
					errs <- err
				}
			}(i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A canceled context must abort training with the context's error.
func TestTrainContextCancel(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(1))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 200
	cfg.SampleSize = 8
	adv := MustNewAdvisor(env, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	if _, err := adv.TrainContext(ctx, goal); err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// NewAdvisor must reject bad configuration with errors, not panics, and
// fill a zero-value TrainConfig with usable defaults.
func TestNewAdvisorValidation(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(2), cloud.DefaultVMTypes(1))

	adv, err := NewAdvisor(env, TrainConfig{})
	if err != nil {
		t.Fatalf("zero-value TrainConfig must default-fill, got error: %v", err)
	}
	def := DefaultTrainConfig()
	if got := adv.Config(); got.NumSamples != def.NumSamples || got.SampleSize != def.SampleSize {
		t.Fatalf("zero-value config normalized to N=%d m=%d, want defaults N=%d m=%d",
			got.NumSamples, got.SampleSize, def.NumSamples, def.SampleSize)
	}

	if _, err := NewAdvisor(nil, DefaultTrainConfig()); err == nil {
		t.Fatal("want error for nil environment")
	}
	if _, err := NewAdvisor(env, TrainConfig{NumSamples: -1}); err == nil {
		t.Fatal("want error for negative NumSamples")
	}
	if _, err := NewAdvisor(env, TrainConfig{SampleSize: -2}); err == nil {
		t.Fatal("want error for negative SampleSize")
	}
	if _, err := NewAdvisor(env, TrainConfig{Parallelism: -1}); err == nil {
		t.Fatal("want error for negative Parallelism")
	}
	empty := &schedule.Env{}
	if _, err := NewAdvisor(empty, DefaultTrainConfig()); err == nil {
		t.Fatal("want error for an environment with no templates")
	}
}
