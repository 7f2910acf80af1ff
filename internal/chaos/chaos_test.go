package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

func chaosModel(t testing.TB) *core.Model {
	t.Helper()
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	cfg := core.DefaultTrainConfig()
	cfg.NumSamples = 100
	cfg.SampleSize = 7
	cfg.Seed = 9
	m, err := core.MustNewAdvisor(env, cfg).Train(sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// shiftedWorkload builds an arrival stream whose template mix flips from
// uniform round-robin to a pure last-template skew, driving the drift
// detector over threshold repeatedly.
func shiftedWorkload(templates []workload.Template, uniform, skewed int, gap time.Duration) *workload.Workload {
	k := len(templates)
	qs := make([]workload.Query, 0, uniform+skewed)
	for i := 0; i < uniform; i++ {
		qs = append(qs, workload.Query{TemplateID: i % k, Tag: i})
	}
	for i := 0; i < skewed; i++ {
		qs = append(qs, workload.Query{TemplateID: k - 1, Tag: uniform + i})
	}
	w := &workload.Workload{Templates: templates, Queries: qs}
	return w.WithArrivals(workload.FixedDelayArrivals(uniform+skewed, gap))
}

// The ISSUE's acceptance scenario: a chaos run that kills VMs mid-stream,
// fails the first K retrains (tripping the breaker), and injects a transient
// checkpoint write fault — and still completes every non-shed arrival
// exactly once, ends with the breaker closed and a committed model epoch,
// and is bit-identical across same-seed reruns.
func TestChaosAcceptance(t *testing.T) {
	m := chaosModel(t)
	spec := Spec{
		Seed: 42,
		VM: cloud.FaultSpec{
			VMFailureRate: 0.5,
			VMMinLifetime: time.Minute,
			VMMaxLifetime: 20 * time.Minute,
		},
		RetrainFailures:             2, // == BreakerThreshold: trips the breaker
		CheckpointTransientFailures: 1,
	}
	// 45s gaps keep real backlogs queued on the rented VMs, so a VM death
	// has in-progress and unstarted work to kill and re-admit.
	const uniform, skewed = 32, 150
	w := shiftedWorkload(m.Env().Templates, uniform, skewed, 45*time.Second)

	runOnce := func(t *testing.T) (string, core.RegistryStats) {
		t.Helper()
		opts := core.DefaultOnlineOptions()
		opts.Drift = core.DriftOptions{Window: 16, Threshold: 0.8, Synchronous: true}
		opts.Retry = core.RetryPolicy{
			BackoffBase:        -1, // isolate the breaker: no backoff windows
			BreakerThreshold:   2,
			BreakerCooldown:    2,
			CheckpointAttempts: 3,
			CheckpointBackoff:  time.Millisecond,
		}
		opts.Degrade = true
		o := core.NewOnlineScheduler(m, opts)
		o.Registry().SetRetrain(spec.Retrain(core.DriftRetrain))
		ms, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := o.Registry().CheckpointTo(ms); err != nil {
			t.Fatal(err)
		}
		ms.SetPayloadWriter(spec.PayloadWriter())

		results, err := o.RunTenants(context.Background(), []core.Tenant{{
			Workload: w,
			Faults:   spec.VMPlan(0),
		}}, 1)
		if err != nil {
			t.Fatalf("chaos stream failed: %v", err)
		}
		o.Registry().Wait()
		res := results[0]

		// Every non-shed arrival completes exactly once (nothing sheds
		// here: MaxBacklog is off), across VM kills and epoch swaps.
		if res.ShedArrivals != 0 {
			t.Fatalf("nothing should shed with admission control off, got %d", res.ShedArrivals)
		}
		if err := res.Check(uniform + skewed); err != nil {
			t.Fatal(err)
		}
		if res.FaultReadmissions == 0 {
			t.Fatal("the chaos plan never killed a VM holding work; the scenario is not exercising re-admission")
		}
		if res.DriftFailures != spec.RetrainFailures {
			t.Fatalf("want the %d injected retrain failures on the stream, got %d", spec.RetrainFailures, res.DriftFailures)
		}

		stats := o.Registry().Stats()
		rb := stats.Robustness
		if rb.Breaker != "closed" || rb.BreakerOpens != 1 || rb.BreakerCloses != 1 {
			t.Fatalf("breaker must have tripped once and recovered, got %+v", rb)
		}
		if !errors.Is(stats.LastErr, ErrInjected) {
			t.Fatalf("the last retrain error must be the injected fault, got %v", stats.LastErr)
		}
		if stats.Epoch < 1 || stats.Swaps < 1 || res.FinalEpoch < 1 {
			t.Fatalf("the post-breaker probe must have swapped a new epoch in, got %+v (stream epoch %d)", stats, res.FinalEpoch)
		}
		// The transient checkpoint fault was retried to a commit.
		if rb.CheckpointRetries != 1 || stats.CheckpointFailures != 0 {
			t.Fatalf("want 1 checkpoint retry and 0 failures, got %+v", stats)
		}
		if latest, ok := ms.LatestEpoch(); !ok || latest < 1 {
			t.Fatalf("the swapped epoch must be committed to the store, got %d (%v)", latest, ok)
		}
		return res.Fingerprint(), stats
	}

	fp1, _ := runOnce(t)
	fp2, _ := runOnce(t)
	if fp1 != fp2 {
		t.Fatalf("chaos run is not bit-deterministic across same-seed reruns:\nrun 1: %s\nrun 2: %s", fp1, fp2)
	}
}

// VMPlan sub-seeds per stream: distinct streams draw distinct failure
// sequences, the same stream draws the same one, and a fault-free spec
// yields no plan at all.
func TestVMPlanSubSeeding(t *testing.T) {
	spec := Spec{Seed: 7, VM: cloud.FaultSpec{VMFailureRate: 1, VMMinLifetime: time.Minute, VMMaxLifetime: time.Hour}}
	if (Spec{Seed: 7}).VMPlan(0) != nil {
		t.Fatal("a spec without VM faults must yield a nil plan")
	}
	if spec.VMPlan(0) == nil {
		t.Fatal("an armed spec must yield a plan")
	}
	fate := func(stream int) string {
		sim := cloud.NewSim()
		sim.SetFaults(spec.VMPlan(stream))
		vt := cloud.DefaultVMTypes(1)[0]
		var out string
		for i := 0; i < 3; i++ {
			vm := sim.Rent(vt, time.Duration(i)*time.Minute)
			at, fails := vm.FailsAt()
			out += fmt.Sprintf("%v/%v;", at, fails)
		}
		return out
	}
	if fate(0) != fate(0) {
		t.Fatal("the same stream index must draw the same failure sequence")
	}
	if fate(0) == fate(1) {
		t.Fatal("distinct stream indices must draw distinct failure sequences")
	}
}

// The standalone injectors count faults across concurrent callers and tag
// them with ErrInjected.
func TestStandaloneInjectors(t *testing.T) {
	inner := func(context.Context, *core.ModelEpoch, []float64) (*core.Model, error) {
		return nil, errors.New("inner reached")
	}
	f := FailFirstRetrains(2, inner)
	for i := 0; i < 2; i++ {
		if _, err := f(context.Background(), nil, nil); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: want injected fault, got %v", i, err)
		}
	}
	if _, err := f(context.Background(), nil, nil); errors.Is(err, ErrInjected) || err == nil {
		t.Fatalf("call 3 must reach inner, got %v", err)
	}

	dir := t.TempDir()
	wtr := FlakyPayloadWriter(1)
	if err := wtr(dir+"/x", []byte("a")); !errors.Is(err, ErrInjected) {
		t.Fatalf("first write must fail injected, got %v", err)
	}
	if err := wtr(dir+"/x", []byte("a")); err != nil {
		t.Fatalf("second write must land atomically, got %v", err)
	}
}
