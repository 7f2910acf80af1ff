package core

import (
	"context"
	"testing"
	"time"

	"wisedb/internal/workload"
)

// Regression tests flushed out by the scenario harness (trace-driven
// arrivals): the arrival queue's sorted-input fast path against ties, its
// copy path against genuinely out-of-order burst traces, the drift
// detector against periodic diurnal mixes, and MaxBacklog shedding plus
// admission-control accounting under flash-crowd bursts.

// The already-sorted fast path must serve ties in place: a non-decreasing
// trace with same-instant runs is NOT copied (10k tenant queues depend on
// that), and each tie group comes out as one batch event preserving
// submission order.
func TestArrivalQueueSortedTiesInPlace(t *testing.T) {
	queries := []workload.Query{
		{Tag: 0, Arrival: 0},
		{Tag: 1, Arrival: 10 * time.Second},
		{Tag: 2, Arrival: 10 * time.Second},
		{Tag: 3, Arrival: 10 * time.Second},
		{Tag: 4, Arrival: 25 * time.Second},
		{Tag: 5, Arrival: 25 * time.Second},
	}
	q := newArrivalQueue(queries)
	if &q.queries[0] != &queries[0] {
		t.Fatal("sorted input with ties was copied; the fast path must serve it in place")
	}
	wantBatches := [][]int{{0}, {1, 2, 3}, {4, 5}}
	wantTimes := []time.Duration{0, 10 * time.Second, 25 * time.Second}
	for i, want := range wantBatches {
		at, batch, ok := q.next()
		if !ok {
			t.Fatalf("queue drained after %d of %d events", i, len(wantBatches))
		}
		if at != wantTimes[i] {
			t.Fatalf("event %d at %s, want %s", i, at, wantTimes[i])
		}
		if len(batch) != len(want) {
			t.Fatalf("event %d batched %d queries, want %d", i, len(batch), len(want))
		}
		for j, tag := range want {
			if batch[j].Tag != tag {
				t.Fatalf("event %d position %d: tag %d, want %d (tie submission order lost)", i, j, batch[j].Tag, tag)
			}
		}
	}
	if _, _, ok := q.next(); ok {
		t.Fatal("queue yielded an event past the trace end")
	}
}

// An out-of-order trace — the flash-crowd shape, burst spikes appended
// after later base arrivals — must be copied (the caller's workload stays
// untouched), stably sorted, and served in time order with burst ties
// keeping their submission order.
func TestArrivalQueueUnsortedBurstTrace(t *testing.T) {
	// Base arrivals up to 5m, then a burst of three at 30s: inversions
	// AND ties, exactly what FlashCrowd generators emit.
	queries := []workload.Query{
		{Tag: 0, Arrival: 0},
		{Tag: 1, Arrival: 2 * time.Minute},
		{Tag: 2, Arrival: 5 * time.Minute},
		{Tag: 3, Arrival: 30 * time.Second},
		{Tag: 4, Arrival: 30 * time.Second},
		{Tag: 5, Arrival: 30 * time.Second},
	}
	orig := append([]workload.Query(nil), queries...)
	q := newArrivalQueue(queries)
	for i := range queries {
		if queries[i] != orig[i] {
			t.Fatal("newArrivalQueue reordered the caller's slice; unsorted input must be copied")
		}
	}
	var gotTags []int
	var gotTimes []time.Duration
	last := time.Duration(-1)
	for {
		at, batch, ok := q.next()
		if !ok {
			break
		}
		if at <= last {
			t.Fatalf("event at %s after event at %s; events must strictly advance", at, last)
		}
		last = at
		for _, query := range batch {
			gotTags = append(gotTags, query.Tag)
			gotTimes = append(gotTimes, at)
		}
	}
	wantTags := []int{0, 3, 4, 5, 1, 2}
	if len(gotTags) != len(wantTags) {
		t.Fatalf("served %d queries, want %d", len(gotTags), len(wantTags))
	}
	for i := range wantTags {
		if gotTags[i] != wantTags[i] {
			t.Fatalf("serve order %v, want %v (burst ties must keep submission order)", gotTags, wantTags)
		}
	}
}

// diurnalTrace builds a deterministic periodic mix over 4 templates: each
// period is half "day" (templates 0 and 1 alternating) and half "night"
// (templates 2 and 3). The time-averaged mix over any whole period is
// exactly uniform — the long-run workload never changes, only its phase.
func diurnalTrace(templates []workload.Template, periods, halfPeriod int, gap time.Duration) *workload.Workload {
	var queries []workload.Query
	tag := 0
	add := func(tpl int) {
		queries = append(queries, workload.Query{TemplateID: tpl, Tag: tag, Arrival: time.Duration(tag) * gap})
		tag++
	}
	for p := 0; p < periods; p++ {
		for i := 0; i < halfPeriod; i++ {
			add(i % 2) // day: templates {0, 1}
		}
		for i := 0; i < halfPeriod; i++ {
			add(2 + i%2) // night: templates {2, 3}
		}
	}
	return &workload.Workload{Templates: templates, Queries: queries}
}

// newDiurnalEngine builds an engine whose drift retrain is a stub epoch
// install (the storm being measured is trigger cadence, not training cost).
func newDiurnalEngine(base *Model, drift DriftOptions) *OnlineScheduler {
	opts := DefaultOnlineOptions()
	opts.Drift = drift
	opts.Drift.Synchronous = true
	o := NewOnlineScheduler(base, opts)
	o.Registry().SetRetrain(func(_ context.Context, cur *ModelEpoch, _ []float64) (*Model, error) {
		return cur.Model, nil
	})
	return o
}

// A periodic diurnal mix must NOT retrain every cycle. The first run pins
// the failure mode this satellite flushed out: with only the fast window,
// each phase flip looks like drift against the last phase's freshly
// installed mix, so the detector ping-pongs retrains forever — the
// long-run mix never changed. StableWindow spanning one period is the fix:
// the slow histogram holds the time average, which matches the baseline,
// and no cycle ever confirms.
func TestDiurnalMixDoesNotRetriggerDrift(t *testing.T) {
	base := onlineBase(t, 4, 1)
	const halfPeriod, periods = 32, 4
	w := diurnalTrace(base.Env().Templates, periods, halfPeriod, 7*time.Minute)

	// Unconfirmed fast window: the retrigger ping-pong, pinned so the
	// failure mode stays documented. Each phase flip retrains toward the
	// new phase's mix, which the next flip then drifts from.
	storm := newDiurnalEngine(base, DriftOptions{Window: 16})
	res, err := storm.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftTriggers < periods {
		t.Fatalf("expected the unconfirmed detector to retrain every phase flip (>= %d over %d periods), got %d — if this improved, update the pin",
			periods, periods, res.DriftTriggers)
	}

	// StableWindow = one full period: the slow histogram averages the
	// cycle out and the stream never retrains.
	calm := newDiurnalEngine(base, DriftOptions{Window: 16, StableWindow: 2 * halfPeriod})
	res, err = calm.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftTriggers != 0 {
		t.Fatalf("diurnal mix with StableWindow spanning the period retrained %d times; want 0", res.DriftTriggers)
	}
	if res.FinalEpoch != 0 {
		t.Fatalf("diurnal mix installed epoch %d; the serving model must not churn on a periodic mix", res.FinalEpoch)
	}
}

// StableWindow must not blind the detector to genuine drift: a sustained
// mix shift fills the slow histogram too and still triggers (with
// detection latency stretched toward the stable window, the documented
// price of periodicity immunity).
func TestStableWindowStillCatchesSustainedShift(t *testing.T) {
	base := onlineBase(t, 4, 1)
	templates := base.Env().Templates
	var queries []workload.Query
	for i := 0; i < 64; i++ { // uniform warmup: matches the training mix
		queries = append(queries, workload.Query{TemplateID: i % 4, Tag: i, Arrival: time.Duration(i) * 7 * time.Minute})
	}
	for i := 64; i < 256; i++ { // sustained shift onto templates {2, 3}
		queries = append(queries, workload.Query{TemplateID: 2 + i%2, Tag: i, Arrival: time.Duration(i) * 7 * time.Minute})
	}
	w := &workload.Workload{Templates: templates, Queries: queries}
	o := newDiurnalEngine(base, DriftOptions{Window: 16, StableWindow: 64})
	res, err := o.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.DriftTriggers == 0 {
		t.Fatal("sustained shift never triggered with StableWindow armed; confirmation must delay detection, not disable it")
	}
}

// flashCrowdTrace builds repeated same-instant bursts: burst b of size
// burstSize lands at b*every, with templates round-robin.
func flashCrowdTrace(templates []workload.Template, bursts, burstSize int, every time.Duration) *workload.Workload {
	k := len(templates)
	var queries []workload.Query
	tag := 0
	for b := 0; b < bursts; b++ {
		for i := 0; i < burstSize; i++ {
			queries = append(queries, workload.Query{TemplateID: tag % k, Tag: tag, Arrival: time.Duration(b) * every})
			tag++
		}
	}
	return &workload.Workload{Templates: templates, Queries: queries}
}

// Flash-crowd bursts against MaxBacklog shedding: shed counts are a pure
// function of the trace (identical across reruns and across tenants
// running the same trace through the sharded engine), sheds only ever hit
// newly arrived queries, and every admitted arrival completes exactly
// once. This is the degraded-path analogue of the scenario suite's
// healthy-path exactly-once pin.
func TestFlashCrowdShedDeterministic(t *testing.T) {
	base := degradedBase(t, 4, 1)
	// Burst 1 takes the fresh model path; burst 2's revoked backlog has
	// waited, the shift path fails (no retained training data), and the
	// stream degrades; bursts 3+ shed above MaxBacklog.
	w := flashCrowdTrace(base.Env().Templates, 5, 10, 30*time.Second)
	n := len(w.Queries)

	run := func() *OnlineResult {
		opts := DefaultOnlineOptions()
		opts.Degrade = true
		opts.MaxBacklog = 4
		o := NewOnlineScheduler(base, opts)
		res, err := o.Run(w)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.ShedArrivals == 0 {
		t.Fatal("flash-crowd bursts above MaxBacklog 4 must shed")
	}
	if first.DegradedArrivals == 0 {
		t.Fatal("the failing shift path must degrade the stream")
	}
	for rerun := 0; rerun < 2; rerun++ {
		again := run()
		if a, b := first.Fingerprint(), again.Fingerprint(); a != b {
			t.Fatalf("rerun %d diverged:\nfirst: %s\nagain: %s", rerun, a, b)
		}
	}

	// Exactly-once under shedding: completions + sheds account for every
	// generated query, with no tag finishing twice.
	if err := first.Check(n); err != nil {
		t.Fatal(err)
	}

	// Two tenants replaying the identical trace concurrently shed
	// identically — per-tenant shed counts are deterministic at any
	// parallelism.
	opts := DefaultOnlineOptions()
	opts.Degrade = true
	opts.MaxBacklog = 4
	o := NewOnlineScheduler(base, opts)
	results, err := o.RunTenants(context.Background(), []Tenant{{Workload: w}, {Workload: w}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if a, b := res.Fingerprint(), first.Fingerprint(); a != b {
			t.Errorf("tenant %d diverged from the single-stream run:\ntenant: %s\nsingle: %s", i, a, b)
		}
	}
	if ss := o.ScaleStats(); ss.ShedArrivals != 2*int64(first.ShedArrivals) {
		t.Fatalf("engine ledger %d != 2 x %d per-tenant sheds", ss.ShedArrivals, first.ShedArrivals)
	}
}

// Socket-level admission (the daemon's token bucket calling Stream.Shed)
// and the engine's internal MaxBacklog shedding land in one ledger: a
// deterministic fixed-budget admission driver replaying a flash crowd must
// account for every query as completed-exactly-once or shed, with the
// stream counter and the engine aggregate agreeing.
func TestAdmissionShedSingleLedger(t *testing.T) {
	base := onlineBase(t, 4, 1)
	w := flashCrowdTrace(base.Env().Templates, 4, 6, 7*time.Minute)
	o := NewOnlineScheduler(base, DefaultOnlineOptions())
	clk := &SimClock{}
	s := o.NewStream(clk)
	ctx := context.Background()

	// Fixed admission budget per burst instant — the token bucket's
	// rate/burst behavior under simulated time: 4 tokens per event.
	const budget = 4
	admitted := 0
	q := newArrivalQueue(w.Queries)
	for {
		at, batch, ok := q.next()
		if !ok {
			break
		}
		clk.Advance(at)
		take := len(batch)
		if take > budget {
			s.Shed(take - budget)
			take = budget
		}
		if err := s.Submit(ctx, batch[:take]...); err != nil {
			t.Fatal(err)
		}
		admitted += take
	}
	res := s.Finish()
	wantShed := len(w.Queries) - admitted
	if res.ShedArrivals != wantShed {
		t.Fatalf("stream ledger %d shed, want %d", res.ShedArrivals, wantShed)
	}
	if err := res.Check(len(w.Queries)); err != nil {
		t.Fatal(err)
	}
	if ss := o.ScaleStats(); ss.ShedArrivals != int64(wantShed) {
		t.Fatalf("engine ledger %d != %d stream sheds", ss.ShedArrivals, wantShed)
	}
	s.Close()
}
