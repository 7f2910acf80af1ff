package core

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

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
// hot swaps: per-stripe singleflight must dedup builds, a swap must not
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
		if err := res.Check(n); err != nil {
			t.Fatalf("stream %d across swaps: %v", i, err)
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

// A hot swap must release what it replaces: once later epochs serve, nothing
// in the engine may keep a superseded epoch's model or the derived models
// the ω-map built from it, or memory grows with the number of swaps.
func TestSwapReleasesSupersededEpochs(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	reg := o.Registry()
	// 10s gaps against minute-long queries: every batch after the first has
	// waited, so the ω-map fills with shifted models of epoch 0.
	if _, err := o.Run(tenantWorkloads(base.Env().Templates, 1, 15, 10*time.Second, 77)[0]); err != nil {
		t.Fatal(err)
	}
	weakShifted := weak.Make(reg.Current().derived.nearestShifted(math.MaxInt64))
	if weakShifted.Value() == nil {
		t.Fatal("the waited stream built no shifted model")
	}

	var weakEpoch1 weak.Pointer[Model]
	ctx := context.Background()
	for i, mix := range [][]float64{{0.6, 0.2, 0.2}, {0.2, 0.6, 0.2}, {0.2, 0.2, 0.6}, {0.4, 0.4, 0.2}} {
		if err := reg.RetrainNow(ctx, mix); err != nil {
			t.Fatalf("retrain %d: %v", i, err)
		}
		if i == 0 {
			weakEpoch1 = weak.Make(reg.Current().Model)
		}
	}
	reg.Wait()
	if got := reg.Current().Epoch; got != 4 {
		t.Fatalf("serving epoch %d, want 4", got)
	}
	// Two collections: a model's serving scratch is a sync.Pool inside it,
	// and the runtime's list of pools keeps a pool used since the last
	// collection — and so its model — reachable through one more.
	runtime.GC()
	runtime.GC()
	if weakEpoch1.Value() != nil {
		t.Error("epoch 1's model is still reachable three swaps later")
	}
	if weakShifted.Value() != nil {
		t.Error("a shifted model of epoch 0 is still reachable after the swaps")
	}
	// The engine must be live across the collection: an unreachable engine
	// releases everything and would prove nothing.
	runtime.KeepAlive(o)
}

// Concurrent AddRegistry calls under one name: exactly one succeeds, and no
// losing registry is left counted in the engine's stats without a stream
// being able to bind to it.
func TestAddRegistryConcurrentSameName(t *testing.T) {
	base := onlineBase(t, 3, 1)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	const callers = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	var ok atomic.Int64
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := o.AddRegistry("tier", base); err == nil {
				ok.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := ok.Load(); got != 1 {
		t.Fatalf("%d of %d concurrent AddRegistry calls succeeded under one name, want 1", got, callers)
	}
	if got := len(o.ScaleStats().Registries); got != 2 {
		t.Fatalf("ScaleStats reports %d registries, want 2", got)
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
		if err := res.Check(n); err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	if got := o.ActiveStreams(); got != 0 {
		t.Fatalf("%d streams still active", got)
	}
}

// A stream still mid-event on a superseded epoch may build a derived model
// after the swap. That model belongs to the old epoch's ω-map: the engine
// must neither count it among its entries nor keep it reachable once the
// stream lets the old epoch go.
func TestLateBuildOnSupersededEpochReleased(t *testing.T) {
	for _, shift := range []bool{true, false} {
		name := "augmented"
		if shift {
			name = "shifted"
		}
		t.Run(name, func(t *testing.T) {
			opts := DefaultOnlineOptions()
			opts.Shift = shift
			o := NewOnlineScheduler(onlineBase(t, 3, 1), opts)
			s := o.NewStream(&SimClock{})
			late := lateDerivedBuild(t, s)
			if n := o.ScaleStats().CacheEntries; n != 0 {
				t.Fatalf("the engine counts %d derived models of a superseded epoch", n)
			}
			// Two collections, as in TestSwapReleasesSupersededEpochs.
			runtime.GC()
			runtime.GC()
			if late.Value() != nil {
				t.Error("a model built late from a superseded epoch is still reachable")
			}
			// The engine and the stream stay live across the collection.
			runtime.KeepAlive(o)
			runtime.KeepAlive(s)
		})
	}
}

// lateDerivedBuild swaps s's registry, then builds one derived model from
// the epoch the swap replaced — the way a stream that loaded that epoch
// before the swap does — and returns a weak pointer to it.
func lateDerivedBuild(t *testing.T, s *Stream) weak.Pointer[Model] {
	ctx := context.Background()
	// Tag 0 arrives at 0 and has waited 30 s by the late build.
	if err := s.Submit(ctx, workload.Query{TemplateID: 0, Tag: 0}); err != nil {
		t.Fatal(err)
	}
	old := s.reg.Current()
	s.reg.Swap(old.Model, nil)
	var err error
	if s.eng.opts.Shift {
		_, err = s.shiftedModel(ctx, old, 30*time.Second)
	} else {
		_, err = s.scheduleAugmented(ctx, old, 30*time.Second, []int{0})
	}
	if err != nil {
		t.Fatal(err)
	}
	var m *Model
	for i := range old.derived.shards {
		for _, e := range old.derived.shards[i].m {
			m = e.m
		}
	}
	if m == nil {
		t.Fatal("the late build left no model in its epoch's ω-map")
	}
	return weak.Make(m)
}
