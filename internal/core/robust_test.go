package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// degradedBase trains a base model WITHOUT retained training data: with
// Shift enabled, any batch holding waited queries fails model acquisition
// ("Adapt requires a model trained with KeepTrainingData"), which is the
// deterministic model-unusable fault the degradation tests ride on.
func degradedBase(t testing.TB, numTemplates, numTypes int) *Model {
	t.Helper()
	env := schedule.NewEnv(workload.DefaultTemplates(numTemplates), cloud.DefaultVMTypes(numTypes))
	return degradedBaseFor(t, env, sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
}

// degradedBaseFor is degradedBase for any goal over env.
func degradedBaseFor(t testing.TB, env *schedule.Env, goal sla.Goal) *Model {
	t.Helper()
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 100
	cfg.SampleSize = 7
	cfg.Seed = 9
	cfg.KeepTrainingData = false
	m, err := MustNewAdvisor(env, cfg).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A permanently failing RetrainFunc must not storm: every trigger attempt
// rebaselines the detector window (so re-triggers are paced by the window's
// fill time), backoff suppresses triggers between failures, and the breaker
// eventually rejects them outright. The regression this pins: the old code
// kept the window hot after a failure, so drift re-fired on every single
// subsequent arrival.
func TestFailedRetrainDoesNotStorm(t *testing.T) {
	base := onlineBase(t, 4, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 16, Threshold: 0.8, Synchronous: true}
	o := NewOnlineScheduler(base, opts)
	boom := errors.New("retrain permanently broken")
	o.Registry().SetRetrain(func(context.Context, *ModelEpoch, []float64) (*Model, error) {
		return nil, boom
	})
	const uniform, skewed = 32, 400
	w := shiftedStream(base.Env().Templates, uniform, skewed, 7*time.Minute)
	res, err := o.Run(w)
	if err != nil {
		t.Fatalf("a failing retrain path must not fail the stream: %v", err)
	}
	if err := res.Check(uniform + skewed); err != nil {
		t.Fatal(err)
	}
	// 400 skewed arrivals with a 16-arrival window allow at most 25 trigger
	// attempts; backoff and the breaker swallow most of those. Without the
	// rebaseline fix the skewed run re-triggers on every arrival (~400).
	attempts := res.DriftFailures + res.DriftSuppressed
	if attempts == 0 {
		t.Fatal("the drifted stream never attempted a retrain")
	}
	if attempts > 30 {
		t.Fatalf("retrigger storm: %d trigger attempts (%d failures, %d suppressed)",
			attempts, res.DriftFailures, res.DriftSuppressed)
	}
	stats := o.Registry().Stats()
	if stats.Failures > 6 {
		t.Fatalf("%d retrains actually ran against a permanently failing path; backoff/breaker must bound this", stats.Failures)
	}
	if stats.Epoch != 0 || stats.Swaps != 0 {
		t.Fatalf("no swap can come from a failing retrain, got %+v", stats)
	}
	rb := stats.Robustness
	if rb.Breaker != "open" || rb.BreakerOpens == 0 {
		t.Fatalf("the breaker must be open after sustained failures, got %+v", rb)
	}
	if rb.BackoffSuppressed == 0 {
		t.Fatalf("backoff never suppressed a trigger, got %+v", rb)
	}
}

// A tripped breaker must recover through a half-open probe: cooldown
// triggers are rejected, the probe runs, and its success closes the breaker
// and swaps the model in.
func TestBreakerRecoversThroughProbe(t *testing.T) {
	base := onlineBase(t, 4, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 16, Threshold: 0.8, Synchronous: true}
	opts.Retry = RetryPolicy{BackoffBase: -1, BreakerThreshold: 2, BreakerCooldown: 2}
	o := NewOnlineScheduler(base, opts)
	var calls atomic.Int64
	o.Registry().SetRetrain(func(ctx context.Context, cur *ModelEpoch, mix []float64) (*Model, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("injected retrain failure")
		}
		return DriftRetrain(ctx, cur, mix)
	})
	// Enough skewed arrivals for 5+ trigger attempts at a 16-arrival
	// window: fail, fail (breaker opens), 2 rejected, probe succeeds.
	w := shiftedStream(base.Env().Templates, 32, 120, 7*time.Minute)
	res, err := o.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	stats := o.Registry().Stats()
	rb := stats.Robustness
	if rb.Breaker != "closed" || rb.BreakerOpens != 1 || rb.BreakerCloses != 1 {
		t.Fatalf("want breaker closed after 1 open/1 close, got %+v", rb)
	}
	if rb.BreakerRejected != 2 {
		t.Fatalf("want exactly the cooldown's 2 rejected triggers, got %+v", rb)
	}
	if stats.Swaps != 1 || stats.Epoch != 1 || res.FinalEpoch != 1 {
		t.Fatalf("the successful probe must have swapped epoch 1 in, got %+v (stream epoch %d)", stats, res.FinalEpoch)
	}
	if res.DriftFailures != 2 {
		t.Fatalf("want the 2 injected failures on the stream, got %d", res.DriftFailures)
	}
}

// A transient checkpoint fault must be retried off the arrival path until
// the commit lands; the retry is visible in RobustnessStats.
func TestCheckpointRetryCommitsOnTransientFault(t *testing.T) {
	base := onlineBase(t, 3, 1)
	r := NewModelRegistry(base)
	r.SetRetryPolicy(RetryPolicy{CheckpointAttempts: 3, CheckpointBackoff: time.Millisecond})
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	var failures atomic.Int64
	failures.Store(1) // fail exactly the first payload write after attach
	ms.SetPayloadWriter(func(path string, data []byte) error {
		if failures.Add(-1) >= 0 {
			return errors.New("injected transient write fault")
		}
		return store.WriteFileAtomic(path, data)
	})
	r.Swap(base, nil)
	r.Wait()
	stats := r.Stats()
	if stats.Checkpoints != 2 || stats.CheckpointFailures != 0 {
		t.Fatalf("want 2 committed checkpoints and 0 failures after retry, got %+v", stats)
	}
	if stats.Robustness.CheckpointRetries != 1 {
		t.Fatalf("want exactly 1 checkpoint retry, got %+v", stats.Robustness)
	}
	if latest, ok := ms.LatestEpoch(); !ok || latest != 1 {
		t.Fatalf("store's newest epoch = %d (%v), want 1", latest, ok)
	}
}

// A permanent checkpoint fault must exhaust the bounded retries, record one
// failure, and leave serving untouched.
func TestCheckpointPermanentFaultBounded(t *testing.T) {
	base := onlineBase(t, 3, 1)
	r := NewModelRegistry(base)
	r.SetRetryPolicy(RetryPolicy{CheckpointAttempts: 3, CheckpointBackoff: time.Millisecond})
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	ms.SetPayloadWriter(func(string, []byte) error { return boom })
	r.Swap(base, nil)
	r.Wait()
	stats := r.Stats()
	if stats.Checkpoints != 1 || stats.CheckpointFailures != 1 {
		t.Fatalf("want 1 checkpoint (base) and 1 bounded failure, got %+v", stats)
	}
	if stats.Robustness.CheckpointRetries != 2 {
		t.Fatalf("3 attempts = 2 retries, got %+v", stats.Robustness)
	}
	if !errors.Is(stats.LastCheckpointErr, boom) {
		t.Fatalf("LastCheckpointErr = %v, want the injected fault", stats.LastCheckpointErr)
	}
	if r.Current().Epoch != 1 {
		t.Fatalf("serving must be undisturbed at epoch 1, got %d", r.Current().Epoch)
	}
	if latest, ok := ms.LatestEpoch(); !ok || latest != 0 {
		t.Fatalf("store must keep its last good epoch 0, got %d (%v)", latest, ok)
	}
}

// When the epoch's model is unusable (here: the shift path needs training
// data the model does not retain), a Degrade-enabled stream falls back to
// first-fit heuristic scheduling and completes every arrival; with Degrade
// off the same fault fails the stream, as before.
func TestDegradedFallbackKeepsServing(t *testing.T) {
	base := degradedBase(t, 4, 1)
	w := tenantWorkloads(base.Env().Templates, 1, 24, 10*time.Second, 3)[0]

	strict := NewOnlineScheduler(base, DefaultOnlineOptions())
	if _, err := strict.Run(w); err == nil {
		t.Fatal("without Degrade, the unusable shift path must fail the stream")
	}

	opts := DefaultOnlineOptions()
	opts.Degrade = true
	o := NewOnlineScheduler(base, opts)
	res, err := o.Run(w)
	if err != nil {
		t.Fatalf("degraded stream failed: %v", err)
	}
	if err := res.Check(24); err != nil {
		t.Fatalf("through degradation: %v", err)
	}
	if res.DegradedArrivals == 0 {
		t.Fatal("the fallback path never engaged")
	}
	ss := o.ScaleStats()
	if ss.DegradedArrivals != int64(res.DegradedArrivals) {
		t.Fatalf("engine aggregate %d != stream %d degraded arrivals", ss.DegradedArrivals, res.DegradedArrivals)
	}
}

// A degraded stream recovers to the model path when a new epoch installs:
// degraded mode is sticky per epoch, not forever.
func TestDegradedModeClearsOnNewEpoch(t *testing.T) {
	bad := degradedBase(t, 4, 1)
	good := onlineBase(t, 4, 1)
	opts := DefaultOnlineOptions()
	opts.Degrade = true
	o := NewOnlineScheduler(bad, opts)
	clk := &SimClock{}
	s := o.NewStream(clk)
	ctx := context.Background()
	submit := func(at time.Duration, tag, tpl int) {
		t.Helper()
		clk.Advance(at)
		if err := s.Submit(ctx, workload.Query{TemplateID: tpl, Tag: tag}); err != nil {
			t.Fatalf("tag %d: %v", tag, err)
		}
	}
	// Two quick arrivals leave an unstarted query behind; the third event
	// re-schedules it with a wait, the shift path fails, the stream degrades.
	submit(0, 0, 0)
	submit(time.Second, 1, 1)
	submit(10*time.Second, 2, 2)
	if s.res.DegradedArrivals == 0 {
		t.Fatal("stream did not degrade on the unusable shift path")
	}
	// A good epoch installs: the next waited batch must use the model path.
	o.Registry().Swap(good, nil)
	before := s.res.DegradedArrivals
	submit(20*time.Second, 3, 3)
	submit(30*time.Second, 4, 0)
	if s.res.DegradedArrivals != before {
		t.Fatalf("stream stayed degraded after a good epoch installed (%d -> %d degraded arrivals)",
			before, s.res.DegradedArrivals)
	}
	if s.res.Adaptations == 0 {
		t.Fatal("post-swap waited batch never used the shift path")
	}
	res := s.Finish()
	if err := res.Check(5); err != nil {
		t.Fatalf("across degrade/recover: %v", err)
	}
}

// While degraded, arrivals beyond MaxBacklog are shed admission-control
// style: only newly arrived queries are dropped (work admitted once always
// completes), every non-shed arrival completes exactly once, and the shed
// count is visible on stream and engine.
func TestDegradedShedsAboveBacklog(t *testing.T) {
	base := degradedBase(t, 4, 1)
	opts := DefaultOnlineOptions()
	opts.Degrade = true
	opts.MaxBacklog = 4
	o := NewOnlineScheduler(base, opts)

	// Burst arrivals: 12 at t=0 (fresh, model path OK), 10 at t=30s (the
	// revoked backlog has waited -> degrade; shedding is not yet active at
	// the moment of admission), 10 at t=60s (degraded now: shed above 4).
	k := len(base.Env().Templates)
	var queries []workload.Query
	tag := 0
	addBurst := func(n int, at time.Duration) {
		for i := 0; i < n; i++ {
			queries = append(queries, workload.Query{TemplateID: tag % k, Tag: tag, Arrival: at})
			tag++
		}
	}
	addBurst(12, 0)
	addBurst(10, 30*time.Second)
	addBurst(10, 60*time.Second)
	w := &workload.Workload{Templates: base.Env().Templates, Queries: queries}

	res, err := o.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShedArrivals == 0 {
		t.Fatal("the third burst must shed above MaxBacklog 4")
	}
	if res.ShedArrivals > 10 {
		t.Fatalf("only newly arrived queries are sheddable, got %d > 10", res.ShedArrivals)
	}
	if err := res.Check(32); err != nil {
		t.Fatal(err)
	}
	if ss := o.ScaleStats(); ss.ShedArrivals != int64(res.ShedArrivals) {
		t.Fatalf("engine aggregate %d != stream %d shed arrivals", ss.ShedArrivals, res.ShedArrivals)
	}
}

// An unservable (template, VM type) placement reroutes to the fallback type
// under Degrade instead of failing the stream.
func TestPlacementReroutesToFallback(t *testing.T) {
	templates := []workload.Template{
		{ID: 0, Name: "small", BaseLatency: 2 * time.Minute},
		{ID: 1, Name: "big", BaseLatency: 3 * time.Minute, HighRAM: true},
	}
	types := cloud.DefaultVMTypes(2)
	types[1].SupportsHighRAM = false // type 1 cannot run template 1
	env := schedule.NewEnv(templates, types)
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 40
	cfg.SampleSize = 5
	cfg.Seed = 11
	base, err := MustNewAdvisor(env, cfg).Train(sla.NewMaxLatency(15*time.Minute, templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}

	run := func(degrade bool) (*Stream, error) {
		opts := DefaultOnlineOptions()
		opts.Degrade = degrade
		o := NewOnlineScheduler(base, opts)
		if o.fallbackType != 0 {
			t.Fatalf("fallback type = %d, want 0 (the type supporting every template)", o.fallbackType)
		}
		s := o.NewStream(&SimClock{})
		s.ensureTag(0)
		s.tags[0] = tagState{arrival: 0, template: 1}
		// A hand-crafted schedule with the unservable pair: template 1 on
		// VM type 1. The batch scheduler never emits this; the test drives
		// the placement-error path directly.
		bad := &schedule.Schedule{VMs: []schedule.VM{{TypeID: 1, Queue: []schedule.Placed{{TemplateID: 1, Tag: 0}}}}}
		return s, s.place(0, bad)
	}

	if _, err := run(false); err == nil {
		t.Fatal("without Degrade, the unservable pair must error")
	}
	s, err := run(true)
	if err != nil {
		t.Fatalf("Degrade must absorb the unservable pair, got %v", err)
	}
	if s.res.DegradedPlacements != 1 {
		t.Fatalf("DegradedPlacements = %d, want 1", s.res.DegradedPlacements)
	}
	res := s.Finish()
	if err := res.Check(1); err != nil {
		t.Fatalf("the rerouted query must complete exactly once: %v", err)
	}
}

// Fault-injected VM failures mid-stream: every re-admitted query completes
// exactly once, failed VMs take no further work, and the whole run is
// bit-deterministic for a fixed chaos seed.
func TestVMFaultsReadmitExactlyOnceDeterministic(t *testing.T) {
	base := onlineBase(t, 4, 1)
	spec := cloud.FaultSpec{
		VMFailureRate: 0.6,
		VMMinLifetime: time.Minute,
		VMMaxLifetime: 20 * time.Minute,
	}
	const n = 60
	w := tenantWorkloads(base.Env().Templates, 1, n, 15*time.Second, 21)[0]
	runOnce := func() (*OnlineResult, string) {
		o := NewOnlineScheduler(base, DefaultOnlineOptions())
		clk := &SimClock{}
		s := o.NewStream(clk)
		s.InjectFaults(cloud.NewFaultPlan(99, spec))
		s.Reserve(n)
		q := newArrivalQueue(w.Queries)
		for {
			at, batch, ok := q.next()
			if !ok {
				break
			}
			clk.Advance(at)
			if err := s.Submit(context.Background(), batch...); err != nil {
				t.Fatal(err)
			}
		}
		res := s.Finish()
		return res, res.Fingerprint()
	}
	res, fp1 := runOnce()
	if res.FaultReadmissions == 0 {
		t.Fatal("a 60% failure rate over this stream must kill at least one VM with work on it")
	}
	if err := res.Check(n); err != nil {
		t.Fatalf("after VM-failure re-admission: %v", err)
	}
	if _, fp2 := runOnce(); fp1 != fp2 {
		t.Fatalf("chaos run not bit-deterministic under a fixed seed:\nrun 1: %s\nrun 2: %s", fp1, fp2)
	}
}

// Tenant.Faults plumbs a per-tenant fault plan through RunTenants, and
// per-tenant results stay bit-identical across parallelism levels even with
// injection on.
func TestRunTenantsWithFaultsDeterministic(t *testing.T) {
	base := onlineBase(t, 4, 2)
	spec := cloud.FaultSpec{VMFailureRate: 0.5, VMMinLifetime: time.Minute, VMMaxLifetime: 10 * time.Minute}
	ws := tenantWorkloads(base.Env().Templates, 4, 20, 15*time.Second, 13)
	build := func() []Tenant {
		tenants := make([]Tenant, len(ws))
		for i := range ws {
			tenants[i] = Tenant{
				Workload: ws[i],
				Faults:   cloud.NewFaultPlan(int64(1000+i), spec),
			}
		}
		return tenants
	}
	var fps [][]string
	for _, p := range []int{1, 4} {
		o := NewOnlineScheduler(base, DefaultOnlineOptions())
		results, err := o.RunTenants(context.Background(), build(), p)
		if err != nil {
			t.Fatalf("parallelism=%d: %v", p, err)
		}
		fp := make([]string, len(results))
		for i, res := range results {
			if err := res.Check(20); err != nil {
				t.Fatalf("parallelism=%d tenant %d: %v", p, i, err)
			}
			fp[i] = res.Fingerprint()
		}
		fps = append(fps, fp)
	}
	for i := range ws {
		if fps[0][i] != fps[1][i] {
			t.Errorf("tenant %d differs across parallelism:\n1 worker:  %s\n4 workers: %s", i, fps[0][i], fps[1][i])
		}
	}
}

// The degraded path's counterpart of TestOnlineArrivalSteadyStateAllocFree:
// with a standing backlog (arrivals 30 s apart, so every event revokes and
// re-places some twenty waiting queries through first-fit) an arrival
// performs zero heap allocations once the stream's scratch has grown to the
// backlog. One goal per family: Max runs FFD, PerQuery and Average FFI
// (PerQuery through a goal holding a slice), Percentile Pack9 over the
// tracker's sorted violation list. Max and PerQuery degrade because the
// model cannot be shifted; Average and Percentile serve waited batches by
// training an augmented model, which a retrain configuration that fits no
// augmented template set makes fail just as deterministically.
func TestDegradedArrivalSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(1))
	goals := []sla.Goal{
		sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		sla.NewPerQuery(3, env.Templates, sla.DefaultPenaltyRate),
		sla.NewAverage(10*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		sla.NewPercentile(90, 15*time.Minute, env.Templates, sla.DefaultPenaltyRate),
	}
	for _, goal := range goals {
		t.Run(goal.Name(), func(t *testing.T) {
			opts := DefaultOnlineOptions()
			opts.Degrade = true
			base := degradedBaseFor(t, env, goal)
			opts.Retrain = base.TrainingConfig
			opts.Retrain.SampleWeights = []float64{1}
			o := NewOnlineScheduler(base, opts)
			clk := &SimClock{}
			s := o.NewStream(clk)
			s.Reserve(400)
			ctx := context.Background()
			k := len(env.Templates)
			// An opening burst leaves queries queued behind one another, so
			// the next event holds waited queries whatever the model.
			burst := make([]workload.Query, 20)
			for i := range burst {
				burst[i] = workload.Query{TemplateID: i % k, Tag: i}
			}
			if err := s.Submit(ctx, burst...); err != nil {
				t.Fatal(err)
			}
			next := len(burst)
			submit := func() {
				clk.Advance(time.Duration(next-len(burst)+1) * 30 * time.Second)
				if err := s.Submit(ctx, workload.Query{TemplateID: next % k, Tag: next}); err != nil {
					t.Fatal(err)
				}
				next++
			}
			for next < 300 {
				submit()
			}
			allocs := testing.AllocsPerRun(60, submit)
			backlog := len(s.batch)
			res := s.Finish()
			events := next - len(burst) + 1
			t.Logf("%.3f allocs per degraded arrival in steady state (%d of %d events degraded, last batch %d queries, %d VMs)",
				allocs, res.DegradedArrivals, events, backlog, res.VMsRented)
			if res.DegradedArrivals < events-1 || backlog < 10 {
				t.Fatalf("%d of %d events took the degraded path and the last batch held %d queries; the pin needs first-fit over a standing backlog", res.DegradedArrivals, events, backlog)
			}
			if allocs >= 1 {
				t.Errorf("steady-state degraded arrival allocates (%.2f allocs/arrival); want 0 (first-fit scratch regression?)", allocs)
			}
		})
	}
}

// BenchmarkDegradedArrival measures the per-arrival cost of the degraded
// serving path: the epoch's model is unusable (no retained training data for
// the shift path), so after the first waited batch every arrival schedules
// the whole unstarted backlog through the first-fit heuristic fallback. It
// replays the arrivals of BenchmarkOnlineArrival, and CI runs the two side
// by side into BENCH_chaos.json: a fallback that costs more per arrival than
// the model path it replaces amplifies the overload that triggered it, so
// the degraded figure must stay at or below the model path's. Both figures
// amortise one engine and one stream construction per 40 arrivals, which is
// all of allocs/arrival here — in steady state a degraded arrival allocates
// nothing (TestDegradedArrivalSteadyStateAllocFree).
func BenchmarkDegradedArrival(b *testing.B) {
	base := degradedBase(b, 5, 2)
	opts := DefaultOnlineOptions()
	opts.Degrade = true
	queries := workload.NewSampler(base.Env().Templates, 13).Uniform(40).Queries
	for i := range queries {
		queries[i].Arrival = time.Duration(i) * 5 * time.Second
	}
	w := &workload.Workload{Templates: base.Env().Templates, Queries: queries}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	var arrivals, degraded int
	for i := 0; i < b.N; i++ {
		o := NewOnlineScheduler(base, opts)
		res, err := o.Run(w)
		if err != nil {
			b.Fatal(err)
		}
		arrivals += len(res.PerArrival)
		degraded += res.DegradedArrivals
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if degraded == 0 {
		b.Fatal("the degraded path never engaged; the benchmark is measuring the model path")
	}
	if b.N > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrivals), "ns/arrival")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(arrivals), "allocs/arrival")
	}
}
