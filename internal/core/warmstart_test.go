package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// driftServeOptions enables synchronous drift handling so checkpoint tests
// are deterministic.
func driftServeOptions(window int) OnlineOptions {
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: window, Threshold: 1.2, Synchronous: true}
	return opts
}

// A serving engine warm-started from a checkpoint must schedule a given
// arrival stream bit-identically to the engine that wrote the checkpoint:
// same schedules, same costs, same stream-local counters, same epoch. The
// stream uses 10s gaps so the shifted-model path runs — which exercises
// the persisted training data, not just the persisted tree.
func TestWarmStartBitDeterministic(t *testing.T) {
	base := onlineBase(t, 4, 1)
	dir := t.TempDir()
	ms, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := driftServeOptions(20)
	eng1 := NewOnlineScheduler(base, opts)
	if err := eng1.Registry().CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	// Drive one drifted stream: the synchronous retrain installs epoch 1,
	// which the registry checkpoints in the background.
	if _, err := eng1.Run(shiftedStream(base.Env().Templates, 30, 50, 7*time.Minute)); err != nil {
		t.Fatal(err)
	}
	eng1.Registry().Wait()
	stats := eng1.Registry().Stats()
	if stats.Epoch != 1 {
		t.Fatalf("drifted stream should land on epoch 1, got %d", stats.Epoch)
	}
	if stats.Checkpoints != 2 || stats.CheckpointFailures != 0 {
		t.Fatalf("want base + epoch-1 checkpoints, got %+v", stats)
	}

	// The probe stream both engines must schedule identically.
	probe := tenantWorkloads(base.Env().Templates, 1, 12, 10*time.Second, 44)[0]
	res1, err := eng1.Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Adaptations == 0 {
		t.Fatal("probe stream never took the shifted-model path; the test would not exercise persisted training data")
	}

	// "Restart": a fresh engine built only from the store.
	eng2, err := NewOnlineSchedulerFromStore(ms, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Registry().Current().Epoch; got != 1 {
		t.Fatalf("warm-started engine serves epoch %d, want 1", got)
	}
	res2, err := eng2.Run(probe)
	if err != nil {
		t.Fatal(err)
	}
	if fp1, fp2 := res1.Fingerprint(), res2.Fingerprint(); fp1 != fp2 {
		t.Fatalf("warm-started engine diverges from the original:\noriginal:    %s\nwarm-start:  %s", fp1, fp2)
	}
}

// A checkpoint killed mid-write must not disturb serving — every arrival
// of every stream still completes exactly once across the hot swap — and a
// store reopened afterwards (the restart after a crash) must fall back to
// the last good epoch, from which a new engine warm-starts and serves a
// resumed arrival stream with no dropped or double-scheduled queries. This
// extends PR 4's hot-swap invariant across the persistence boundary.
func TestCheckpointCrashMidWriteFallsBackToLastGoodEpoch(t *testing.T) {
	base := onlineBase(t, 5, 1)
	dir := t.TempDir()
	ms, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng1 := NewOnlineScheduler(base, driftServeOptions(20))
	if err := eng1.Registry().CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	// Every later commit dies mid-write: half the payload lands, then the
	// writer is "killed".
	ms.SetPayloadWriter(func(path string, data []byte) error {
		store.WriteFileAtomic(path, data[:len(data)/2])
		return errors.New("killed mid-write")
	})

	const uniform, skewed = 30, 50
	w := shiftedStream(base.Env().Templates, uniform, skewed, 7*time.Minute)
	res, err := eng1.Run(w)
	if err != nil {
		t.Fatalf("a checkpoint failure must never fail serving: %v", err)
	}
	eng1.Registry().Wait()
	if err := res.Check(uniform + skewed); err != nil {
		t.Fatalf("across the failed checkpoint: %v", err)
	}
	stats := eng1.Registry().Stats()
	if stats.Epoch != 1 || stats.Swaps != 1 {
		t.Fatalf("drift swap must land despite checkpoint failure: %+v", stats)
	}
	if stats.CheckpointFailures == 0 || stats.LastCheckpointErr == nil {
		t.Fatalf("checkpoint failure must be recorded: %+v", stats)
	}

	// Restart: reopen the store. The torn epoch-1 file was never
	// acknowledged by the manifest, so recovery sweeps it and the last
	// good epoch is the base checkpoint.
	ms2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lin, _, err := ms2.Latest()
	if err != nil || lin.Epoch != 0 {
		t.Fatalf("want fallback to epoch 0, got epoch %d err %v", lin.Epoch, err)
	}
	eng2, err := NewOnlineSchedulerFromStore(ms2, driftServeOptions(20))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Registry().CheckpointTo(ms2); err != nil {
		t.Fatal(err)
	}
	// Resume: the unprocessed tail of the arrival stream replays against
	// the warm-started engine. Its drift handling starts from a clean
	// baseline, re-detects the still-shifted mix, swaps, and checkpoints
	// the new epoch — this time durably.
	resume := shiftedStream(base.Env().Templates, uniform, skewed, 7*time.Minute)
	res2, err := eng2.Run(resume)
	if err != nil {
		t.Fatal(err)
	}
	eng2.Registry().Wait()
	if err := res2.Check(uniform + skewed); err != nil {
		t.Fatalf("resumed stream: %v", err)
	}
	if latest, ok := ms2.LatestEpoch(); !ok || latest != 1 {
		t.Fatalf("resumed engine's drift swap was not durably checkpointed: latest %d ok %v", latest, ok)
	}
}

// Checkpoint lineage must record the full audit trail: the base commit,
// then a drift-triggered commit carrying parent epoch, trigger EMD, and
// the observed mix.
func TestCheckpointLineage(t *testing.T) {
	base := onlineBase(t, 5, 1)
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewOnlineScheduler(base, driftServeOptions(20))
	if err := eng.Registry().CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(shiftedStream(base.Env().Templates, 30, 50, 7*time.Minute)); err != nil {
		t.Fatal(err)
	}
	eng.Registry().Wait()
	entries := ms.Entries()
	if len(entries) != 2 {
		t.Fatalf("want 2 lineage entries, got %d", len(entries))
	}
	b, d := entries[0], entries[1]
	if b.Epoch != 0 || b.Reason != "base" || b.ModelHash == 0 {
		t.Fatalf("base lineage: %+v", b)
	}
	if d.Epoch != 1 || d.Parent != 0 || d.Reason != "drift" || d.EMD <= 1.2 {
		t.Fatalf("drift lineage: %+v", d)
	}
	if len(d.Mix) != 5 || d.Mix[4] < 0.5 {
		t.Fatalf("drift lineage mix does not target the shifted template: %v", d.Mix)
	}
	if b.ModelHash == d.ModelHash {
		t.Fatal("base and drift-retrained models hash identically")
	}
}

// Regression test for the warm-start drift bug: a stream whose detector
// window was filled against one epoch must NOT trigger a retrain the
// moment a different-mix epoch is installed (warm start of an old epoch,
// or a cross-tenant swap) — the stale window says nothing about the new
// baseline. The detector must rebaseline on any epoch install and re-earn
// a full window before it may trigger.
func TestDriftRebaselinesOnAnyEpochInstall(t *testing.T) {
	base := onlineBase(t, 5, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 16, Threshold: 0.5, Synchronous: true}
	eng := NewOnlineScheduler(base, opts)
	// Any retrain in this test is spurious: the arrival mix never changes.
	eng.Registry().SetRetrain(func(context.Context, *ModelEpoch, []float64) (*Model, error) {
		return nil, errors.New("spurious drift retrain")
	})

	clk := &SimClock{}
	s := eng.NewStream(clk)
	k := len(base.Env().Templates)
	next := 0
	submit := func() {
		clk.Advance(time.Duration(next) * 7 * time.Minute)
		if err := s.Submit(context.Background(), workload.Query{TemplateID: next % k, Tag: next}); err != nil {
			t.Fatalf("arrival %d: %v", next, err)
		}
		next++
	}
	// Fill the window with uniform arrivals against the uniform epoch-0
	// mix: no drift, detector warmed up past a full window.
	for next < 24 {
		submit()
	}
	// Install an epoch targeting a very different mix (the warm-start /
	// cross-tenant scenario: same model, stale skewed mix).
	skew := make([]float64, k)
	skew[k-1] = 1
	eng.Registry().Swap(base, skew)
	// A handful more uniform arrivals — fewer than the window — must not
	// trigger: the detector rebaselined on the install, so its window no
	// longer claims 24 uniform arrivals were observed against skew.
	for next < 24+8 {
		submit()
	}
	res := s.Finish()
	if res.DriftTriggers != 0 {
		t.Fatalf("stale-window drift fired %d retrains after an epoch install (rebaseline regression)", res.DriftTriggers)
	}
	if stats := eng.Registry().Stats(); stats.Triggers != 0 || stats.Failures != 0 {
		t.Fatalf("registry saw spurious retrains: %+v", stats)
	}
}

// CheckpointTo must refuse a store that records another serving lineage —
// one whose newest epoch is ahead of the registry, or holds a different
// model at the registry's current epoch — instead of silently skipping
// the base commit and then colliding every future epoch number with the
// store's history.
func TestCheckpointToRefusesForeignLineage(t *testing.T) {
	base1 := onlineBase(t, 3, 1)
	base2 := onlineBase(t, 3, 2) // different environment -> different model

	// A store already ahead (epoch 1) of a fresh registry (epoch 0).
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r1 := NewModelRegistry(base1)
	if err := r1.CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	r1.Swap(base1, nil)
	r1.Wait()
	if latest, _ := ms.LatestEpoch(); latest != 1 {
		t.Fatalf("setup: store at epoch %d, want 1", latest)
	}
	if err := NewModelRegistry(base1).CheckpointTo(ms); err == nil {
		t.Fatal("attaching a store that is ahead of the registry must be refused")
	}

	// A store holding a different model at the registry's current epoch.
	ms2, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := NewModelRegistry(base1).CheckpointTo(ms2); err != nil {
		t.Fatal(err)
	}
	if err := NewModelRegistry(base2).CheckpointTo(ms2); err == nil {
		t.Fatal("attaching a store holding a different epoch-0 model must be refused")
	}
	// The matching registry still attaches cleanly (warm-start pattern).
	r3 := NewModelRegistry(base1)
	if err := r3.CheckpointTo(ms2); err != nil {
		t.Fatalf("re-attaching the store's own lineage must succeed: %v", err)
	}
}

// WarmStart on an empty store must fail loudly rather than serve nothing.
func TestWarmStartEmptyStore(t *testing.T) {
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOnlineSchedulerFromStore(ms, DefaultOnlineOptions()); !errors.Is(err, store.ErrEmpty) {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
	base := onlineBase(t, 3, 1)
	r := NewModelRegistry(base)
	if _, err := r.WarmStart(ms); !errors.Is(err, store.ErrEmpty) {
		t.Fatalf("registry warm start on empty store: want ErrEmpty, got %v", err)
	}
}

// ModelRegistry.WarmStart must install the stored epoch wholesale —
// number, mix, and model — and leave the superseded epoch's derived models
// behind with it, like any other install.
func TestRegistryWarmStartInstallsStoredEpoch(t *testing.T) {
	base := onlineBase(t, 4, 1)
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewModelRegistry(base)
	if err := r.CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	r.Swap(base, nil)
	r.Wait() // drain the background checkpoint of epoch 1

	eng := NewOnlineScheduler(base, DefaultOnlineOptions())
	s := eng.NewStream(&SimClock{})
	if _, err := s.shiftedModel(context.Background(), eng.Registry().Current(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	ep, err := eng.Registry().WarmStart(ms)
	if err != nil {
		t.Fatal(err)
	}
	if ep.Epoch != 1 {
		t.Fatalf("warm start installed epoch %d, want 1", ep.Epoch)
	}
	if cached := eng.ScaleStats().CacheEntries; cached != 0 {
		t.Fatalf("warm start left %d superseded derived models cached", cached)
	}
}
