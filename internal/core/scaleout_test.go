package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wisedb/internal/workload"
)

// scaleTenants builds k tenants over fixed-seed workloads, binding every
// other tenant to the named second registry (if any).
func scaleTenants(templates []workload.Template, k, n int, gap time.Duration, seed int64, second string) []Tenant {
	tenants := asTenants(tenantWorkloads(templates, k, n, gap, seed))
	if second != "" {
		for i := 1; i < k; i += 2 {
			tenants[i].Registry = second
		}
	}
	return tenants
}

// Per-tenant results must be bit-identical at every worker count with
// streams spread over two registries — and identical to the same tenants on
// one registry, since a registry built from the same base serves the same
// models. The engine's worker count (RunTenants' parallelism) is what the
// shard count used to be.
func TestRunTenantsDeterministicAcrossShardCounts(t *testing.T) {
	one := tenantFingerprints(t, "")
	two := tenantFingerprints(t, "premium")
	for i := range one {
		if two[i] != one[i] {
			t.Errorf("tenant %d differs between one and two registries:\none: %s\ntwo: %s", i, one[i], two[i])
		}
	}
}

// Many concurrent streams hammering the same hot ω-map keys across repeated
// hot swaps: per-stripe singleflight must dedup builds, eviction must not
// disturb in-flight acquisitions, and every stream must complete every
// arrival exactly once. Run under -race this is the striped-cache
// correctness hammer.
func TestShardedCacheHotKeyHammerAcrossSwap(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	const streams, n = 16, 40
	// One seed: every stream replays the identical arrival pattern, so all
	// of them want the same shifted-model keys at the same time.
	ws := make([]*workload.Workload, streams)
	for i := range ws {
		w := workload.NewSampler(base.Env().Templates, 99).Uniform(n)
		ws[i] = w.WithArrivals(workload.FixedDelayArrivals(n, 10*time.Second))
	}

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; i < 5; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				o.Registry().Swap(base, nil)
			}
		}
	}()
	results, err := o.RunTenants(context.Background(), asTenants(ws), streams)
	close(stop)
	swapper.Wait()
	if err != nil {
		t.Fatal(err)
	}

	acquisitions := 0
	for i, res := range results {
		seen := make([]bool, n)
		for _, out := range res.Outcomes {
			if seen[out.Tag] {
				t.Fatalf("stream %d: tag %d completed twice across a swap", i, out.Tag)
			}
			seen[out.Tag] = true
		}
		if len(res.Outcomes) != n {
			t.Fatalf("stream %d completed %d of %d arrivals", i, len(res.Outcomes), n)
		}
		acquisitions += res.Adaptations + res.CacheHits
	}
	builds := o.CacheStats()
	if builds == 0 {
		t.Fatal("no derived models were built")
	}
	if int(builds) > acquisitions {
		t.Errorf("%d builds exceed %d acquisitions: singleflight dedup broken", builds, acquisitions)
	}
	t.Logf("%d streams, %d acquisitions, %d deduped builds across 5 hot swaps", streams, acquisitions, builds)
}

// Two registries converging on the same (goal, config, mix) must share one
// retrain: the second registry's drift trigger reuses the first's model
// instead of duplicating the training search.
func TestSharedRetrainAcrossRegistries(t *testing.T) {
	base := onlineBase(t, 5, 1)
	opts := DefaultOnlineOptions()
	opts.Drift = DriftOptions{Window: 20, Threshold: 1.2, Synchronous: true}
	o := NewOnlineScheduler(base, opts)
	premium, err := o.AddRegistry("premium", base)
	if err != nil {
		t.Fatal(err)
	}
	w := shiftedStream(base.Env().Templates, 40, 60, 7*time.Minute)
	// Parallelism 1 replays the default tenant to completion before the
	// premium one starts: the second retrain finds the first one's model.
	tenants := []Tenant{{Workload: w}, {Registry: "premium", Workload: w}}
	if _, err := o.RunTenants(context.Background(), tenants, 1); err != nil {
		t.Fatal(err)
	}
	defStats, preStats := o.Registry().Stats(), premium.Stats()
	if defStats.Swaps != 1 || preStats.Swaps != 1 {
		t.Fatalf("want one swap per registry, got default=%d premium=%d", defStats.Swaps, preStats.Swaps)
	}
	stats := o.ScaleStats()
	if stats.SharedRetrains != 1 {
		t.Fatalf("want 1 shared retrain, got %d", stats.SharedRetrains)
	}
	if stats.Registries != 2 {
		t.Fatalf("want 2 registries, got %d", stats.Registries)
	}
	if o.Registry().Current().Model != premium.Current().Model {
		t.Error("identical (goal, config, mix) retrains produced distinct models")
	}
	if o.Registry().Current() == premium.Current() {
		t.Error("registries must own their epochs even when sharing a model")
	}
}

// Registry and tenant validation must fail loudly, before any stream runs.
func TestRunTenantsValidation(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	w := tenantWorkloads(base.Env().Templates, 1, 4, time.Minute, 3)[0]

	if _, err := o.RunTenants(context.Background(), []Tenant{{Registry: "nope", Workload: w}}, 0); err == nil {
		t.Error("unknown registry must fail")
	}
	if _, err := o.RunTenants(context.Background(), []Tenant{{}}, 0); err == nil {
		t.Error("nil workload must fail")
	}
	bad := &workload.Workload{Templates: w.Templates[:2], Queries: w.Queries}
	if _, err := o.RunTenants(context.Background(), []Tenant{{Workload: bad}}, 0); err == nil {
		t.Error("template-count mismatch must fail")
	}
	if res, err := o.RunTenants(context.Background(), nil, 0); err != nil || res != nil {
		t.Errorf("empty tenant set: want (nil, nil), got (%v, %v)", res, err)
	}

	if _, err := o.AddRegistry("", base); err == nil {
		t.Error("empty registry name must fail")
	}
	if _, err := o.AddRegistry("tier", nil); err == nil {
		t.Error("nil base model must fail")
	}
	if _, err := o.AddRegistry(DefaultRegistry, base); err == nil {
		t.Error("duplicate registry name must fail")
	}
	other := onlineBase(t, 4, 1)
	if _, err := o.AddRegistry("tier", other); err == nil {
		t.Error("template-count mismatch against the engine env must fail")
	}
	if o.RegistryNamed("never") != nil {
		t.Error("unknown registry lookup must return nil")
	}
}

// A cancelled context must abort RunTenants, reclaim every in-flight
// stream, and leave the engine serviceable.
func TestRunTenantsContextCancel(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	tenants := scaleTenants(base.Env().Templates, 8, 20, time.Minute, 9, "")

	ctx, cancel := context.WithCancel(context.Background())
	var places atomic.Int64
	o.placeStarted = func(*OnlineResult) {
		if places.Add(1) == 10 {
			cancel()
		}
	}
	if _, err := o.RunTenants(ctx, tenants, 2); err == nil {
		t.Fatal("cancelled RunTenants must return an error")
	}
	o.placeStarted = nil
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("cancelled run leaked %d active streams", got)
	}
	if _, err := o.RunTenants(context.Background(), tenants, 2); err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	cancel()
}

// 1000 tenants through one RunTenants call: a scaled-down smoke of the 10k
// serving mode (cmd/wisedb -streams drives the full size). Every arrival
// completes exactly once and scratch is reclaimed.
func TestRunTenantsAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := onlineBase(t, 3, 1)
	const streams, n = 1000, 4
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	tenants := scaleTenants(base.Env().Templates, streams, n, 7*time.Minute, 123, "")
	results, err := o.RunTenants(context.Background(), tenants, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.Outcomes) != n {
			t.Fatalf("tenant %d completed %d of %d arrivals", i, len(res.Outcomes), n)
		}
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("%d streams still active", got)
	}
}
