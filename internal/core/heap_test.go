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

// liveHeap returns HeapAlloc after two forced collections: the second one
// also empties the sync.Pool victim caches, so pooled search arenas and
// streams do not count.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// A model holds what it serves and what a later build replays — tree,
// compiled tables, each sample's workload, path and variates, the
// transposition cache — and nothing its searches left behind. The serving
// model (5 templates, 2 VM types, DefaultTrainConfig: N = 500, m = 12) and
// its Tighten(0.3) must each retain under 2 MB; with a §5 closed set kept
// per sample they retained 16.0 and 10.5 MB.
func TestBuiltModelsRetainLittleHeap(t *testing.T) {
	skipUnlessServingScale(t)
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	const limit = 2e6

	before := liveHeap()
	base, err := MustNewAdvisor(env, DefaultTrainConfig()).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	withBase := liveHeap()
	tight, err := base.Tighten(0.3)
	if err != nil {
		t.Fatal(err)
	}
	withTight := liveHeap()
	runtime.KeepAlive(base)
	runtime.KeepAlive(tight)

	for _, c := range []struct {
		name     string
		retained int64
	}{{"trained model", withBase - before}, {"Tighten(0.3)", withTight - withBase}} {
		t.Logf("%s retains %.2f MB", c.name, float64(c.retained)/1e6)
		if c.retained >= limit {
			t.Errorf("%s retains %.2f MB of heap; want < %.2f MB (search byproducts kept?)",
				c.name, float64(c.retained)/1e6, float64(limit)/1e6)
		}
	}
}

// A stream whose caller cannot Reserve — a network connection does not know
// how many arrivals it will carry — grows its per-arrival records as it
// goes: the tag table, PerArrival and each VM's run record. Grown by
// doubling they cost about twice their final size in allocation; at
// append's ≈ 1.25× step for large slices, five times. 50 000 single-query
// arrivals 7 min apart (every batch of size 1, as on a fresh connection)
// must allocate at most 200 B each before Finish; append's growth cost
// 287 B.
func TestUnreservedStreamBytesPerArrival(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	base := onlineBase(t, 5, 2)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	clk := &SimClock{}
	s := o.NewStream(clk)
	defer s.Close()
	ctx := context.Background()
	k := len(base.Env().Templates)
	const n, limit = 50000, 200.0

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		clk.Advance(time.Duration(i) * 7 * time.Minute)
		if err := s.Submit(ctx, workload.Query{TemplateID: i % k, Tag: i}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	s.Finish()

	perArrival := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f B allocated per arrival", perArrival)
	if perArrival > limit {
		t.Errorf("an unreserved stream allocates %.1f B per arrival; want <= %.0f (records grown by less than doubling?)",
			perArrival, limit)
	}
}
