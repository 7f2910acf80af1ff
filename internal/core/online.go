package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/heuristics"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// OnlineOptions tunes online scheduling (§6.3) and the serving engine built
// around it.
type OnlineOptions struct {
	// Reuse enables the model-reuse optimization (§6.3.1): models built
	// for a given pattern of query waits (the ω-map) are cached and
	// reused when the same pattern recurs. Each serving epoch has its own
	// cache, shared by every stream it serves, with duplicate builds
	// suppressed — when two tenants need the same model at once, exactly
	// one builds it.
	Reuse bool
	// Shift enables the linear-shifting optimization (§6.3.1): for
	// shiftable goals (Max, PerQuery), a batch whose queries have waited
	// is scheduled by adaptively shifting the base model's goal instead
	// of training a model for augmented templates.
	Shift bool
	// WaitResolution buckets query waits when keying cached models and
	// building augmented templates; the paper observes two batches can
	// share a model when their ω differ by less than the latency
	// predictor's error. Default 1s.
	WaitResolution time.Duration
	// Retrain configures the from-scratch training used when neither
	// optimization applies. A zero value (NumSamples == 0) re-trains at
	// the base model's own scale — the paper's unoptimized baseline.
	Retrain TrainConfig
	// Drift configures workload-drift detection and model hot-swapping
	// (§6's adaptive loop). Disabled by default; see DriftOptions.
	Drift DriftOptions
	// Retry is the failure discipline applied to every registry the
	// engine hosts: retrain backoff + circuit breaker (measured in
	// drift-trigger attempts, so it stays deterministic under SimClock)
	// and bounded checkpoint retry. Zero fields take defaults; negative
	// fields disable. See RetryPolicy.
	Retry RetryPolicy
	// Degrade enables graceful degradation: an arrival whose model
	// acquisition or placement fails is scheduled by the first-fit
	// heuristic on the engine's fallback VM type instead of failing the
	// stream. Degraded mode is sticky per epoch — once a stream degrades
	// it stays on the heuristic until a new epoch installs (context
	// cancellation still aborts). Off by default: replay and analysis
	// callers usually want model-path errors surfaced, not absorbed.
	Degrade bool
	// MaxBacklog sheds load admission-control-style while degraded: when
	// an arrival event's batch (re-admitted backlog + new arrivals)
	// exceeds MaxBacklog, newly arrived queries beyond the bound are
	// dropped (never re-admitted work — a query admitted once completes
	// exactly once). 0 disables shedding. Only active in degraded mode.
	MaxBacklog int
	// Prices is an optional spot-style time-varying VM price schedule.
	// Every stream's simulator charges leases per the schedule (see
	// cloud.Sim.SetPrices), and the serving loop's dominated-placement
	// guard compares open-VM placement against fresh-VM rental at the
	// multiplier in effect at each arrival instant, so scheduling and
	// accounting see the same prices. Nil means flat base prices; a flat
	// all-1.0 schedule is bit-identical to nil.
	Prices *cloud.PriceSchedule
}

// DefaultOnlineOptions enables both optimizations and re-trains augmented
// models at the base model's scale when training from scratch is required.
// Drift detection stays off; enable it by setting Drift.Window.
func DefaultOnlineOptions() OnlineOptions {
	return OnlineOptions{
		Reuse:          true,
		Shift:          true,
		WaitResolution: time.Second,
	}
}

// OnlineResult reports the outcome of scheduling one arrival stream.
type OnlineResult struct {
	// Cost is the total monetary cost in cents: start-up fees,
	// processing fees, and the goal penalty over true query latencies
	// (completion − arrival).
	Cost float64
	// Penalty is the SLA penalty component of Cost.
	Penalty float64
	// VMsRented counts VMs provisioned over the stream.
	VMsRented int
	// SchedulingTime is the total advisor time across arrivals (model
	// acquisition + tree parsing) — the overhead Fig. 19 reports.
	SchedulingTime time.Duration
	// PerArrival holds the advisor time of each arrival event.
	PerArrival []time.Duration
	// Retrainings counts distinct augmented models this stream acquired
	// from scratch; Adaptations counts distinct models it acquired by
	// shifting; CacheHits counts re-acquisitions of a model the stream
	// had already used. The counters are stream-local — and therefore
	// deterministic for a fixed arrival sequence at any engine
	// concurrency — while the epoch's shared ω-map dedups the actual
	// builds across streams underneath (see OnlineScheduler.CacheStats).
	Retrainings, Adaptations, CacheHits int
	// AdaptReplayed and AdaptSolved split the sample workloads behind the
	// models counted in Adaptations: replayed from a looser goal's solved
	// path (the base model's, or the nearest smaller wait's in the ω-map
	// when the model was built) or re-solved. The models themselves do
	// not depend on the split; the split does depend on what the ω-map
	// held when each was built.
	AdaptReplayed, AdaptSolved int
	// DriftTriggers counts drift retrains this stream started;
	// DriftTriggerArrivals records the arrival-event index of each (the
	// shift-recovery experiment reads detection latency off it).
	DriftTriggers        int
	DriftTriggerArrivals []int
	// DriftSuppressed counts drift triggers this stream's registry
	// swallowed (backoff window or open breaker); DriftFailures counts
	// synchronous retrains that failed while the stream kept serving its
	// current epoch.
	DriftSuppressed, DriftFailures int
	// DegradedArrivals counts arrival events scheduled by the first-fit
	// heuristic fallback; DegradedPlacements counts individual queries
	// rerouted to the fallback VM type after an unservable placement;
	// ShedArrivals counts newly arrived queries dropped by admission
	// control while degraded. FaultReadmissions counts queries re-admitted
	// to the batch after their VM failed (each re-admitted exactly once).
	DegradedArrivals, DegradedPlacements, ShedArrivals, FaultReadmissions int
	// DeadlineMisses counts arrival events whose per-event deadline
	// (Stream.SubmitDeadline) expired during model acquisition and were
	// served by the degraded path instead of waiting the deadline out.
	DeadlineMisses int
	// Outcomes records every completed query — tag, arrival, and
	// execution bounds — ordered by completion: the one record of what
	// the stream ran, which Check audits and the throughput and recovery
	// analyses consume.
	Outcomes []Outcome
	// FinalEpoch is the registry epoch serving when the stream finished
	// (0 = the base model was never swapped).
	FinalEpoch uint64
}

// Outcome is one completed query of an online stream.
type Outcome struct {
	// Tag and TemplateID identify the query.
	Tag, TemplateID int
	// Arrival is when the query was submitted; Start and End bound its
	// execution on the simulated VM. True latency is End − Arrival.
	Arrival, Start, End time.Duration
}

// Check audits the result's exactly-once ledger against the number of
// queries submitted to the stream, tagged 0 … submitted−1 (shed ones
// included): no tag completes more than once, completions and sheds
// account for every submission, each query ran inside its own lifetime
// (Arrival ≤ Start ≤ End), outcomes come in completion order (End, then
// Tag — cloud.Sim.Finish's order), and every drift trigger recorded its
// arrival index. It is the one owner of these stream invariants: the
// tests, the chaos and scenario harnesses and the experiment tables all
// run it.
func (r *OnlineResult) Check(submitted int) error {
	if len(r.Outcomes)+r.ShedArrivals != submitted {
		return fmt.Errorf("core: %d completed + %d shed != %d submitted", len(r.Outcomes), r.ShedArrivals, submitted)
	}
	if r.DriftTriggers != len(r.DriftTriggerArrivals) {
		return fmt.Errorf("core: %d drift triggers but %d trigger arrivals", r.DriftTriggers, len(r.DriftTriggerArrivals))
	}
	done := make([]bool, submitted)
	for i, o := range r.Outcomes {
		switch {
		case o.Tag < 0 || o.Tag >= submitted:
			return fmt.Errorf("core: outcome %d has tag %d outside [0, %d)", i, o.Tag, submitted)
		case done[o.Tag]:
			return fmt.Errorf("core: tag %d has two outcomes", o.Tag)
		case o.Start < o.Arrival || o.End < o.Start:
			return fmt.Errorf("core: tag %d arrived %v, started %v, ended %v", o.Tag, o.Arrival, o.Start, o.End)
		case i > 0 && cmp.Or(cmp.Compare(r.Outcomes[i-1].End, o.End), cmp.Compare(r.Outcomes[i-1].Tag, o.Tag)) > 0:
			return fmt.Errorf("core: outcome %d (tag %d, end %v) out of completion order", i, o.Tag, o.End)
		}
		done[o.Tag] = true
	}
	return nil
}

// Fingerprint renders every field of the result the schedule determines —
// Cost and Penalty as exact bits — so two runs compare equal exactly when
// they served their arrivals identically. It leaves out the wall-clock
// fields (SchedulingTime, the PerArrival values, DeadlineMisses) and
// AdaptReplayed/AdaptSolved, which depend on what the ω-map held when a
// model was built.
func (r *OnlineResult) Fingerprint() string {
	return fmt.Sprintf("cost=%x penalty=%x vms=%d arrivals=%d retrain=%d adapt=%d hits=%d drift=%v suppressed=%d failures=%d degraded=%d/%d shed=%d readmit=%d epoch=%d outcomes=%v",
		r.Cost, r.Penalty, r.VMsRented, len(r.PerArrival), r.Retrainings, r.Adaptations, r.CacheHits,
		r.DriftTriggerArrivals, r.DriftSuppressed, r.DriftFailures,
		r.DegradedArrivals, r.DegradedPlacements, r.ShedArrivals, r.FaultReadmissions, r.FinalEpoch, r.Outcomes)
}

// augKey identifies a "new template" (§6.3): an original template plus a
// bucketed wait.
type augKey struct {
	template int
	wait     time.Duration
}

// OnlineScheduler is the multi-tenant online serving engine (§6.3,
// productionized): it owns the model lifecycle (one or more ModelRegistrys,
// each holding a hot-swappable serving epoch, with that epoch's striped
// ω-map of derived models, for one SLA goal / tenant tier). Each tenant
// stream — a Stream opened by NewStream/NewStreamOn, or one workload
// replayed by Run/RunTenants — carries its own simulator, arrival
// bookkeeping, and scratch, and is bound to one registry at open time, so
// any number of streams proceed concurrently with no serialization beyond
// the rare shared model build.
//
// An OnlineScheduler is safe for concurrent use.
type OnlineScheduler struct {
	opts OnlineOptions
	env  *schedule.Env
	goal sla.Goal

	registry *ModelRegistry // the default registry (DefaultRegistry)
	pool     sync.Pool      // *Stream
	active   atomic.Int64
	// builds counts derived models built into any epoch's ω-map.
	builds atomic.Int64

	// regMu guards the named-registry table; lookups off the arrival path
	// only (streams bind at open time).
	regMu sync.RWMutex
	regs  map[string]*ModelRegistry

	// retrainCtx governs background drift retrains: they outlive the
	// triggering stream so other tenants benefit from the swap.
	retrainCtx context.Context

	// fallbackType is the lowest-indexed VM type that can run every
	// template — the degraded path's placement target. −1 when no single
	// type supports the full template set (degradation then cannot
	// reroute and model-path errors surface as before).
	fallbackType int

	// Failure-path counters aggregated across streams (per-stream copies
	// live in each OnlineResult).
	degradedArrivals, degradedPlacements, shedArrivals, deadlineMisses atomic.Int64

	// placeStarted, when non-nil, is invoked at the top of every place;
	// tests use it to pin that simulator placement runs outside the timed
	// advisor window (§6.3's overhead metric excludes execution).
	placeStarted func(res *OnlineResult)
}

// DefaultRegistry is the name of the registry every engine starts with —
// the one NewStream, Run, and tenants with an empty Registry bind to.
const DefaultRegistry = "default"

// NewOnlineScheduler returns a serving engine over the base model. The
// Shift optimization additionally requires the base model to retain
// training data (KeepTrainingData) and a shiftable goal.
func NewOnlineScheduler(base *Model, opts OnlineOptions) *OnlineScheduler {
	if opts.WaitResolution <= 0 {
		opts.WaitResolution = time.Second
	}
	if opts.Retrain.NumSamples == 0 {
		opts.Retrain = base.TrainingConfig
		opts.Retrain.KeepTrainingData = false
	}
	o := &OnlineScheduler{
		opts:       opts,
		env:        base.env,
		goal:       base.Goal,
		regs:       map[string]*ModelRegistry{},
		retrainCtx: context.Background(),
	}
	o.fallbackType = -1
	for ti := range o.env.VMTypes {
		supportsAll := true
		for tpl := range o.env.Templates {
			if _, ok := o.env.Latency(tpl, ti); !ok {
				supportsAll = false
				break
			}
		}
		if supportsAll {
			o.fallbackType = ti
			break
		}
	}
	o.registry, _ = o.attachRegistry(DefaultRegistry, base) // the table is empty: no clash
	return o
}

// attachRegistry creates a registry serving base and wires it into the
// engine under name with the engine's retry policy. The name check and the
// insert share one critical section, so of two concurrent attaches under
// one name exactly one succeeds.
func (o *OnlineScheduler) attachRegistry(name string, base *Model) (*ModelRegistry, error) {
	o.regMu.Lock()
	defer o.regMu.Unlock()
	if _, exists := o.regs[name]; exists {
		return nil, fmt.Errorf("core: registry %q already exists", name)
	}
	r := NewModelRegistry(base)
	r.SetRetryPolicy(o.opts.Retry)
	o.regs[name] = r
	return r, nil
}

// AddRegistry adds a named model registry to the engine — one per SLA goal
// or tenant tier — serving base as its epoch 0 with its own drift-retrain
// lifecycle and (optionally, via ModelRegistry.CheckpointTo) its own
// checkpoint store. Streams bind to a registry at open time (NewStreamOn,
// Tenant.Registry); the engine's stream pool is shared across registries,
// while every retrain, epoch (with its ω-map) and counter is the registry's
// own.
//
// The base model must be bound to an environment with the same template
// and VM-type counts as the engine's: streams of every registry place onto
// the same simulated fleet shapes. Call before serving begins.
func (o *OnlineScheduler) AddRegistry(name string, base *Model) (*ModelRegistry, error) {
	if name == "" {
		return nil, errors.New("core: AddRegistry requires a name")
	}
	if base == nil {
		return nil, errors.New("core: AddRegistry requires a base model")
	}
	if len(base.env.Templates) != len(o.env.Templates) || len(base.env.VMTypes) != len(o.env.VMTypes) {
		return nil, fmt.Errorf("core: registry %q: base model has %d templates x %d VM types, engine has %d x %d",
			name, len(base.env.Templates), len(base.env.VMTypes), len(o.env.Templates), len(o.env.VMTypes))
	}
	return o.attachRegistry(name, base)
}

// RegistryNamed returns the named registry, or nil if it does not exist.
func (o *OnlineScheduler) RegistryNamed(name string) *ModelRegistry {
	o.regMu.RLock()
	defer o.regMu.RUnlock()
	return o.regs[name]
}

// Registries returns the number of registries the engine hosts.
func (o *OnlineScheduler) Registries() int {
	o.regMu.RLock()
	defer o.regMu.RUnlock()
	return len(o.regs)
}

// RegistryNames returns the names of every registry the engine hosts,
// sorted. The serving daemon's drain walks this list to checkpoint each
// registry exactly once.
func (o *OnlineScheduler) RegistryNames() []string {
	o.regMu.RLock()
	names := make([]string, 0, len(o.regs))
	for name := range o.regs {
		names = append(names, name)
	}
	o.regMu.RUnlock()
	slices.Sort(names)
	return names
}

// NewOnlineSchedulerFromStore warm-starts a serving engine from a durable
// model store: the newest intact epoch is decoded and serves immediately —
// under its persisted epoch number and arrival mix, with zero training
// searches — exactly as it served before the restart. Attach the store
// back with Registry().CheckpointTo to keep checkpointing new epochs into
// it (the already-present epoch is not re-committed).
func NewOnlineSchedulerFromStore(ms *store.ModelStore, opts OnlineOptions) (*OnlineScheduler, error) {
	e, err := loadLatestEpoch(ms)
	if err != nil {
		return nil, err
	}
	o := NewOnlineScheduler(e.Model, opts)
	o.registry.installEpoch(e)
	return o, nil
}

// Templates returns the number of workload templates the engine's
// environment defines — the valid TemplateID range for arrivals.
func (o *OnlineScheduler) Templates() int { return len(o.env.Templates) }

// Registry returns the engine's default model lifecycle subsystem: the
// current serving epoch, hot-swap entry points, and retrain statistics.
// Named registries added with AddRegistry are reached via RegistryNamed.
func (o *OnlineScheduler) Registry() *ModelRegistry { return o.registry }

// ActiveStreams returns the number of streams currently open (acquired and
// neither finished nor cancelled).
func (o *OnlineScheduler) ActiveStreams() int64 { return o.active.Load() }

// CacheStats reports the ω-map build counter: how many derived (shifted or
// augmented) models the engine actually trained, across all streams,
// registries, and epochs.
// Compare against the per-stream Adaptations and Retrainings counters to
// see cross-tenant deduplication at work.
func (o *OnlineScheduler) CacheStats() (builds int64) { return o.builds.Load() }

// ScaleStats snapshots the engine: the counters it owns — the ω-map's and
// the failure-path totals over every stream it served — and, per tier, each
// registry's own lifecycle snapshot. No registry counter is re-summed here;
// a tier's retrains, checkpoints and breaker are read under its name.
type ScaleStats struct {
	// Registries holds each registry's Stats, keyed by registry name
	// (DefaultRegistry included).
	Registries map[string]RegistryStats
	// CacheBuilds counts real derived-model builds ever; CacheEntries sums
	// the entries of each registry's current epoch's ω-map (a superseded
	// epoch's map goes with its epoch).
	CacheBuilds  int64
	CacheEntries int
	// DegradedArrivals, DegradedPlacements, and ShedArrivals aggregate
	// the failure-path counters across every stream the engine served.
	DegradedArrivals, DegradedPlacements, ShedArrivals int64
	// DeadlineMisses aggregates arrival events whose per-event deadline
	// expired during model acquisition (served degraded, not aborted).
	DeadlineMisses int64
}

// ScaleStats returns a consistent-enough snapshot for monitoring and tests.
func (o *OnlineScheduler) ScaleStats() ScaleStats {
	s := ScaleStats{
		CacheBuilds:        o.builds.Load(),
		DegradedArrivals:   o.degradedArrivals.Load(),
		DegradedPlacements: o.degradedPlacements.Load(),
		ShedArrivals:       o.shedArrivals.Load(),
		DeadlineMisses:     o.deadlineMisses.Load(),
	}
	o.regMu.RLock()
	s.Registries = make(map[string]RegistryStats, len(o.regs))
	for name, r := range o.regs {
		s.Registries[name] = r.Stats()
		s.CacheEntries += r.Current().derived.size()
	}
	o.regMu.RUnlock()
	return s
}

// Tenant is one tenant stream for batch replay (RunTenants): the registry
// it binds to (its SLA tier), the arrival stream to replay, and an optional
// fault plan for its simulator.
type Tenant struct {
	// Registry names the model registry the tenant's stream binds to; ""
	// binds to DefaultRegistry.
	Registry string
	// Workload is the tenant's arrival stream.
	Workload *workload.Workload
	// Faults, when non-nil, arms the tenant's simulator with a
	// deterministic fault plan (VM failures, stragglers) before serving
	// begins. Faults are per-tenant: each tenant's draws are keyed by its
	// own simulator's rent sequence, so results stay bit-deterministic at
	// any parallelism.
	Faults *cloud.FaultPlan
}

// Run schedules the workload's queries at their recorded arrival times
// against the default registry and simulates execution to completion. Many
// Run calls may proceed concurrently; each gets its own stream.
func (o *OnlineScheduler) Run(w *workload.Workload) (*OnlineResult, error) {
	results, err := o.RunTenants(context.Background(), []Tenant{{Workload: w}}, 1)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunTenants replays many tenant streams concurrently over a bounded worker
// pool (parallelism <= 0 selects GOMAXPROCS; the pool is the one training
// uses). Each tenant binds to its registry and replays its workload at the
// recorded arrival times on its own stream. Tenants are validated before
// any stream runs. Results are positional and bit-deterministic for any
// parallelism: a stream's schedule depends only on its own arrivals and the
// deterministically built models, and the stream-local counters never
// observe engine scheduling. The first stream error — or a cancelled ctx,
// checked between arrival events and inside model acquisition — cancels the
// remaining streams and releases every stream's simulated VMs.
func (o *OnlineScheduler) RunTenants(ctx context.Context, tenants []Tenant, parallelism int) ([]*OnlineResult, error) {
	if len(tenants) == 0 {
		return nil, nil
	}
	regs := make([]*ModelRegistry, len(tenants))
	for i, t := range tenants {
		name := t.Registry
		if name == "" {
			name = DefaultRegistry
		}
		if regs[i] = o.RegistryNamed(name); regs[i] == nil {
			return nil, fmt.Errorf("core: tenant %d: unknown registry %q", i, name)
		}
		if t.Workload == nil {
			return nil, fmt.Errorf("core: tenant %d: nil workload", i)
		}
		if len(t.Workload.Templates) != len(o.env.Templates) {
			return nil, fmt.Errorf("core: tenant %d: workload has %d templates, engine expects %d",
				i, len(t.Workload.Templates), len(o.env.Templates))
		}
	}
	results := make([]*OnlineResult, len(tenants))
	err := forEach(ctx, parallelism, len(tenants), func(i int) error {
		res, err := o.replay(ctx, regs[i], tenants[i].Workload, tenants[i].Faults)
		if err != nil {
			return fmt.Errorf("core: tenant %d: %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// replay runs one workload as a stream bound to reg, its simulator armed
// with faults (nil injects nothing).
func (o *OnlineScheduler) replay(ctx context.Context, reg *ModelRegistry, w *workload.Workload, faults *cloud.FaultPlan) (*OnlineResult, error) {
	clk := &SimClock{}
	s := o.acquireStreamOn(reg, clk)
	defer o.releaseStream(s)
	if faults != nil {
		s.InjectFaults(faults)
	}
	s.Reserve(len(w.Queries))
	q := newArrivalQueue(w.Queries)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, batch, ok := q.next()
		if !ok {
			break
		}
		clk.Advance(t)
		if err := s.Submit(ctx, batch...); err != nil {
			return nil, err
		}
	}
	return s.Finish(), nil
}

// NewStream opens an event-driven tenant stream against the engine's
// default registry: the caller submits arrivals as they happen
// (Stream.Submit timestamps each event with the clock) and closes with
// Stream.Finish. Use a SimClock the driver advances for virtual time, or a
// WallClock for live serving — the stream core is identical.
func (o *OnlineScheduler) NewStream(clock Clock) *Stream {
	return o.acquireStreamOn(o.registry, clock)
}

// NewStreamOn is NewStream bound to a named registry (one SLA goal /
// tenant tier): the stream serves from that registry's epochs and reports
// drift to it.
func (o *OnlineScheduler) NewStreamOn(registry string, clock Clock) (*Stream, error) {
	r := o.RegistryNamed(registry)
	if r == nil {
		return nil, fmt.Errorf("core: unknown registry %q", registry)
	}
	return o.acquireStreamOn(r, clock), nil
}

// tagState is the per-query bookkeeping of a stream, indexed by query tag.
// template is −1 for tags the stream has not seen.
type tagState struct {
	arrival  time.Duration
	template int32
}

// Stream is one tenant's arrival stream: per-stream simulator, per-query
// bookkeeping, drift detector, and scratch buffers. Streams of one engine
// share its registries and their epochs' ω-maps but nothing else mutable,
// so they run concurrently with no lock on the arrival path beyond an
// ω-map stripe's, which a shifted model published in its slot skips. Each
// stream is bound to one registry at open time — its SLA goal, serving
// epochs, and drift lifecycle come from that binding.
//
// A Stream is single-owner: one goroutine submits and finishes it. Query
// tags must be small non-negative integers (bookkeeping is indexed by tag);
// the samplers' dense 0..n−1 tags are ideal.
type Stream struct {
	eng   *OnlineScheduler
	reg   *ModelRegistry
	clock Clock
	sim   *cloud.Sim // nil once the stream is released to the pool
	res   *OnlineResult
	drift *driftDetector
	tags  []tagState
	last  time.Duration // latest event time; Submit clamps to monotonic
	done  bool          // finished or closed: Submit refuses further events
	// driftEpoch is the registry epoch the drift detector last baselined
	// against. Any epoch install — a drift retrain, a manual swap, a
	// warm start from a checkpoint — changes the baseline mix, so the
	// detector's window (full of arrivals judged against the old mix)
	// must be rebaselined before it may trigger again; comparing a stale
	// window against a fresh mix produced spurious immediate retrains.
	driftEpoch uint64
	// degraded marks the stream as serving through the first-fit
	// heuristic fallback; degradedEpoch is the epoch it degraded under.
	// Degraded mode is sticky per epoch: the model path is retried only
	// when a new epoch installs, so a broken epoch cannot re-fail every
	// arrival.
	degraded      bool
	degradedEpoch uint64
	// firstFit is the degraded path's scratch. Its tracker serves the goal
	// of epoch firstFitEpoch of the stream's registry and is rebuilt when
	// the serving epoch differs; a pooled stream starts with none.
	firstFit      heuristics.Scratch
	firstFitEpoch uint64
	// eventDeadline, when non-zero, bounds the model acquisition of the
	// current arrival event (set per event by SubmitDeadline). It is a
	// budget, not a wall instant: each event gets its own window.
	eventDeadline time.Duration
	// priceMult is the spot price multiplier in effect at the current
	// arrival event (OnlineOptions.Prices.At of the event time; 1 under
	// flat prices). onArrival refreshes it once per event and the batch
	// scheduler's dominated-placement guard prices fees with it.
	priceMult float64

	// seen, shiftSeen and shiftEpoch track which derived models this
	// stream has already acquired, making the CacheHits/Adaptations/
	// Retrainings counters stream-local and scheduling-independent.
	// shiftSeen is a bitset over the shift slots (see modelCache.shifts)
	// of epoch shiftEpoch, cleared when the stream's events move to
	// another epoch; seen holds every other key. Neither holds a model, so
	// a live stream pins nothing.
	seen       map[seenKey]struct{}
	shiftSeen  []uint64
	shiftEpoch uint64

	// Persistent scratch: the arrival loop re-batches, re-schedules, and
	// re-places on every event, and these buffers keep that machinery
	// allocation-free in steady state.
	batch     []int            // revoked + newly arrived tags
	queries   []workload.Query // batch rendered as workload queries
	wl        workload.Workload
	cands     [][]vmCandidate // per VM type, live VMs as placement candidates (see nextCandidate)
	candNext  []int           // per VM type, cursor of the next unused candidate
	candReady []int           // per VM type, candidates before it are in placement order
	sched     *schedule.Schedule
	backing   []schedule.Placed
}

// vmCandidate is an active physical VM considered for an abstract VM slot.
type vmCandidate struct {
	vm   *cloud.SimVM
	free time.Duration
}

// acquireStreamOn draws a reset stream from the engine's scratch pool and
// binds it to reg for its whole life.
func (o *OnlineScheduler) acquireStreamOn(reg *ModelRegistry, clock Clock) *Stream {
	s, _ := o.pool.Get().(*Stream)
	if s == nil {
		s = &Stream{eng: o, seen: map[seenKey]struct{}{}}
	}
	s.reg = reg
	s.clock = clock
	s.sim = cloud.NewSim()
	s.sim.SetPrices(o.opts.Prices)
	s.priceMult = 1
	s.res = &OnlineResult{}
	s.tags = s.tags[:0]
	s.last = 0
	s.done = false
	s.degraded = false
	s.degradedEpoch = 0
	s.firstFit.Tracker = nil
	s.eventDeadline = 0
	clear(s.seen)
	clear(s.shiftSeen)
	s.shiftEpoch = 0
	if o.opts.Drift.enabled() {
		if s.drift == nil {
			s.drift = newDriftDetector(len(o.env.Templates), o.opts.Drift)
		} else {
			s.drift.reset()
		}
		s.driftEpoch = reg.Current().Epoch
	} else {
		s.drift = nil
	}
	o.active.Add(1)
	return s
}

// releaseStream returns a stream's scratch to the engine's pool. The
// stream's result (if finished) stays valid — results are never pooled. A
// stream released before Finish counts as cancelled: its simulator, and with
// it every rented VM, is dropped. Releasing is idempotent: a stream already
// back in the pool is not put there twice, which would hand it to two
// owners.
func (o *OnlineScheduler) releaseStream(s *Stream) {
	if s.sim == nil {
		return
	}
	if !s.done {
		s.done = true
		o.active.Add(-1)
	}
	s.sim = nil
	s.res = nil
	s.clock = nil
	s.reg = nil
	o.pool.Put(s)
}

// Reserve preallocates the stream's bookkeeping for a run of n queries with
// tags in [0, n): with capacity in place, the steady-state arrival path
// performs zero allocations (pinned by TestOnlineArrivalSteadyStateAllocFree).
func (s *Stream) Reserve(n int) {
	if cap(s.tags) < n {
		tags := make([]tagState, len(s.tags), n)
		copy(tags, s.tags)
		s.tags = tags
	}
	if cap(s.res.PerArrival) < n {
		perArrival := make([]time.Duration, len(s.res.PerArrival), n)
		copy(perArrival, s.res.PerArrival)
		s.res.PerArrival = perArrival
	}
	if cap(s.batch) < n {
		s.batch = make([]int, 0, n)
	}
	if cap(s.queries) < n {
		s.queries = make([]workload.Query, 0, n)
	}
	if cap(s.backing) < n {
		s.backing = make([]schedule.Placed, 0, n)
	}
}

// ensureTag grows the tag table to cover tag, marking new slots unseen. A
// stream that did not Reserve grows it by doubling, as it does PerArrival
// (see cloud.SimVM.materialize for why).
func (s *Stream) ensureTag(tag int) {
	for len(s.tags) <= tag {
		if len(s.tags) == cap(s.tags) {
			s.tags = slices.Grow(s.tags, len(s.tags))
		}
		s.tags = append(s.tags, tagState{template: -1})
	}
}

// InjectFaults arms the stream's simulator with a deterministic fault plan
// (VM failures, stragglers — see cloud.NewFaultPlan). Call before the first
// Submit; fates are drawn per rented VM from the plan's seed, so the same
// arrivals under the same plan replay bit-identically.
func (s *Stream) InjectFaults(p *cloud.FaultPlan) { s.sim.SetFaults(p) }

// Submit delivers one arrival event — every query in arrived is stamped
// with the stream clock's current time and the unstarted backlog is
// re-scheduled (§6.3). ctx bounds any model acquisition the event needs.
// Submit is the clock-agnostic stream core: the workload replay drivers and
// live wall-clock serving both funnel through it.
func (s *Stream) Submit(ctx context.Context, arrived ...workload.Query) error {
	if s.done {
		return errors.New("core: Submit on a finished or closed stream")
	}
	if len(arrived) == 0 {
		return nil
	}
	t := s.clock.Now()
	if t < s.last {
		t = s.last // wall clocks are monotonic; SimClock panics on rewind
	}
	s.last = t
	return s.onArrival(ctx, t, arrived)
}

// SubmitDeadline is Submit with a per-request placement deadline: if
// obtaining a model for this event (a shifted or augmented build) takes
// longer than d, the event is served by the degraded first-fit path
// instead of waiting the build out — the arrival is placed, late
// placement becomes the SLA penalty's problem, and the miss is counted
// (OnlineResult.DeadlineMisses). Requires OnlineOptions.Degrade and a
// viable fallback VM type; without them a missed deadline fails the
// stream exactly like any other model-path error.
//
// The deadline guards only model acquisition that can block — neither a
// fresh batch nor a waited one whose shifted model is already published
// waits for anything, so a deadline adds nothing there (and costs
// nothing: no context is derived on those paths, and they stay at 0
// allocs/arrival). d <= 0 means no deadline.
func (s *Stream) SubmitDeadline(ctx context.Context, d time.Duration, arrived ...workload.Query) error {
	s.eventDeadline = d
	err := s.Submit(ctx, arrived...)
	s.eventDeadline = 0
	return err
}

// Shed records n arrivals dropped by admission control before
// submission — the serving daemon's token bucket sheds on the socket,
// and the drop lands in the same counters the engine's internal
// MaxBacklog shedding uses (OnlineResult.ShedArrivals, engine-wide
// ScaleStats.ShedArrivals), so overload accounting is one ledger no
// matter which layer shed.
func (s *Stream) Shed(n int) {
	if n <= 0 || s.done {
		return
	}
	s.res.ShedArrivals += n
	s.eng.shedArrivals.Add(int64(n))
}

// Close returns the stream's scratch to the engine's pool. Call after
// Finish (the result stays valid — results are never pooled), or
// without Finish to cancel the stream and drop its simulated VMs. A
// second Close is a no-op, and Submit on a closed stream returns an
// error. Use only for streams opened with NewStream/NewStreamOn; Run and
// RunTenants recycle their streams themselves.
func (s *Stream) Close() {
	s.eng.releaseStream(s)
}

// Finish drains the stream's simulation and returns the final result: total
// cost, the goal's penalty over true latencies (completion − arrival), and
// the per-arrival advisor overhead. The stream cannot be used afterwards.
func (s *Stream) Finish() *OnlineResult {
	if s.done {
		return s.res
	}
	s.done = true
	s.eng.active.Add(-1)
	runs := s.sim.Finish()
	perf := make([]sla.QueryPerf, len(runs))
	outcomes := make([]Outcome, len(runs))
	for i, r := range runs {
		arrival := s.tags[r.Tag].arrival
		perf[i] = sla.QueryPerf{TemplateID: r.TemplateID, Latency: r.End - arrival}
		outcomes[i] = Outcome{Tag: r.Tag, TemplateID: r.TemplateID, Arrival: arrival, Start: r.Start, End: r.End}
	}
	res := s.res
	res.Outcomes = outcomes
	// The penalty is judged by the stream's own registry: each tier's
	// streams are scored against that tier's SLA goal.
	res.Penalty = s.reg.Current().Model.Goal.Penalty(perf)
	res.Cost = s.sim.ProvisioningCost() + res.Penalty
	res.FinalEpoch = s.reg.Current().Epoch
	return res
}

// stopwatchAnchor is the fixed instant the per-arrival advisor stopwatch
// reads against. time.Since of a Time that carries a monotonic reading is
// one monotonic clock read; time.Now reads the wall clock as well, which
// an interval never uses.
var stopwatchAnchor = time.Now()

// onArrival handles one arrival event at time t (§6.3): observe the
// arrivals for drift, revoke unstarted queries, form the batch B_i, obtain
// a model for the waited queries, and re-schedule.
//
// Only model acquisition and tree parsing are timed — SchedulingTime and
// PerArrival are the advisor-overhead metric of Fig. 19, and mapping the
// schedule onto simulator VMs (place) stands in for the execution layer the
// paper does not charge to the advisor (§6.3). TestOnlineTimingExcludesPlacement
// pins placement outside the timed window.
func (s *Stream) onArrival(ctx context.Context, t time.Duration, arrived []workload.Query) error {
	k := len(s.eng.env.Templates)
	for _, q := range arrived {
		if q.Tag < 0 {
			return fmt.Errorf("core: online arrival with negative tag %d", q.Tag)
		}
		if q.TemplateID < 0 || q.TemplateID >= k {
			return fmt.Errorf("core: query tag %d references unknown template %d", q.Tag, q.TemplateID)
		}
	}
	// A stream admits each tag once: a repeat would overwrite the earlier
	// query's arrival, giving it a negative latency and a wrong penalty.
	// Tags recorded by this event are unrecorded again if a later one
	// repeats, so a refused event changes nothing.
	for i, q := range arrived {
		s.ensureTag(q.Tag)
		if s.tags[q.Tag].template >= 0 {
			for _, p := range arrived[:i] {
				s.tags[p.Tag] = tagState{template: -1}
			}
			return fmt.Errorf("core: query tag %d submitted twice", q.Tag)
		}
		s.tags[q.Tag] = tagState{arrival: t, template: int32(q.TemplateID)}
	}
	// Load the serving epoch once per event: everything this arrival does
	// uses it, so a hot swap landing mid-event cannot split the batch
	// between two models. The spot price multiplier is likewise pinned at
	// the event instant (At is alloc-free; nil prices yield exactly 1).
	epoch := s.reg.Current()
	s.priceMult = s.eng.opts.Prices.At(t)
	if s.drift != nil {
		for _, q := range arrived {
			// Rebaseline on any epoch install, not just this stream's own
			// retrain-triggered swaps: a warm-started or cross-tenant
			// epoch changes the baseline mix, and judging the detector's
			// stale window against it would re-trigger drift immediately
			// (pinned by TestDriftRebaselinesOnAnyEpochInstall).
			if epoch.Epoch != s.driftEpoch {
				s.drift.reset()
				s.driftEpoch = epoch.Epoch
			}
			if emd, drifted := s.drift.observe(q.TemplateID, epoch.Mix); drifted {
				swapped, err := s.triggerDrift(ctx, emd)
				if err != nil {
					return err
				}
				// Every trigger attempt rebaselines the window — started,
				// suppressed, busy, or failed. A failed retrain that left
				// the window hot would re-fire on the very next arrival,
				// forever (the retrigger storm); cold-starting the window
				// makes the re-trigger cadence the detector's fill time,
				// on top of which the registry's backoff/breaker gate sits.
				s.drift.reset()
				if swapped {
					epoch = s.reg.Current()
				}
				s.driftEpoch = epoch.Epoch
			}
		}
	}
	s.batch = s.batch[:0]
	for _, vm := range s.sim.VMs() {
		// A VM whose injected failure instant has passed surrenders its
		// killed in-flight run and unstarted queue for re-admission
		// (exactly once — CollectFailed is a no-op afterwards), then the
		// usual revocation sweep reclaims unstarted work from the living.
		n := len(s.batch)
		s.batch = vm.CollectFailed(t, s.batch)
		s.res.FaultReadmissions += len(s.batch) - n
		s.batch = vm.RevokeUnstartedInto(t, s.batch)
	}
	for _, q := range arrived {
		s.batch = append(s.batch, q.Tag)
	}
	// Admission control: while degraded, a batch beyond MaxBacklog sheds
	// its newest arrivals. Only queries arriving at this event are
	// sheddable — work admitted earlier (re-admitted or revoked) completes
	// exactly once, never silently vanishes mid-stream.
	if s.degraded && s.eng.opts.MaxBacklog > 0 {
		if over := len(s.batch) - s.eng.opts.MaxBacklog; over > 0 {
			if over > len(arrived) {
				over = len(arrived)
			}
			s.batch = s.batch[:len(s.batch)-over]
			s.res.ShedArrivals += over
			s.eng.shedArrivals.Add(int64(over))
		}
	}
	slices.Sort(s.batch)

	begin := time.Since(stopwatchAnchor)
	sched, err := s.scheduleEvent(ctx, epoch, t)
	elapsed := time.Since(stopwatchAnchor) - begin
	if err != nil {
		return err
	}
	s.res.SchedulingTime += elapsed
	if len(s.res.PerArrival) == cap(s.res.PerArrival) {
		s.res.PerArrival = slices.Grow(s.res.PerArrival, len(s.res.PerArrival))
	}
	s.res.PerArrival = append(s.res.PerArrival, elapsed)
	return s.place(t, sched)
}

// scheduleEvent obtains a schedule for the current batch: the model path
// when healthy, the first-fit heuristic fallback when degraded. A stream in
// degraded mode stays on the heuristic until a new epoch installs; a model
// path that errors under OnlineOptions.Degrade enters degraded mode instead
// of failing the stream (context cancellation still aborts — a cancelled
// stream must stop, not limp).
func (s *Stream) scheduleEvent(ctx context.Context, epoch *ModelEpoch, t time.Duration) (*schedule.Schedule, error) {
	if s.degraded {
		if epoch.Epoch == s.degradedEpoch {
			s.noteDegraded()
			return s.scheduleDegraded(epoch)
		}
		s.degraded = false // new epoch: give the model path another chance
	}
	sched, err := s.scheduleBatch(ctx, epoch, t, s.batch)
	if err == nil {
		return sched, nil
	}
	// The stream's own context going dead is the caller's stop signal:
	// abort, never limp. A context error with the stream context still
	// live is a per-event deadline (SubmitDeadline) expiring inside model
	// acquisition — an overload condition, handled exactly like any other
	// model-path failure: degrade if allowed.
	if !s.eng.opts.Degrade || s.eng.fallbackType < 0 || ctx.Err() != nil {
		return nil, err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.res.DeadlineMisses++
		s.eng.deadlineMisses.Add(1)
	}
	s.degraded, s.degradedEpoch = true, epoch.Epoch
	s.noteDegraded()
	return s.scheduleDegraded(epoch)
}

// noteDegraded records one arrival event served by the degraded path.
func (s *Stream) noteDegraded() {
	s.res.DegradedArrivals++
	s.eng.degradedArrivals.Add(1)
}

// scheduleDegraded schedules the batch with the first-fit heuristic on the
// engine's fallback VM type — no model, no training search, just the §4
// greedy baseline. Its placements are approximate but always servable, and
// the goal's penalty still judges the true latencies at Finish. Like the
// model path it builds into the stream's schedule skeleton, which place
// consumes before the next event, so a degraded arrival allocates nothing
// in steady state (pinned by TestDegradedArrivalSteadyStateAllocFree).
func (s *Stream) scheduleDegraded(epoch *ModelEpoch) (*schedule.Schedule, error) {
	s.queries = s.queries[:0]
	for _, tag := range s.batch {
		s.queries = append(s.queries, workload.Query{TemplateID: int(s.tags[tag].template), Tag: tag})
	}
	goal := epoch.Model.Goal
	// The tracker is bound to one goal; the goal can change only with the
	// epoch (goals are not comparable: PerQuery holds a slice).
	if s.firstFit.Tracker == nil || s.firstFitEpoch != epoch.Epoch {
		s.firstFit.Tracker = sla.NewTracker(goal)
		s.firstFitEpoch = epoch.Epoch
	}
	s.sched, s.backing = s.firstFit.FirstFit(s.queries, s.eng.env, s.eng.fallbackType, heuristics.OrderFor(goal), s.sched, s.backing)
	return s.sched, nil
}

// triggerDrift asks the registry to retrain toward the stream's observed
// mix; emd (the distance that crossed the threshold) rides into the new
// epoch's checkpoint lineage. In synchronous mode the swap has landed when
// it returns true; in background mode it returns false and the swap
// arrives at a later event.
func (s *Stream) triggerDrift(ctx context.Context, emd float64) (swapped bool, err error) {
	r := s.reg
	if s.eng.opts.Drift.Synchronous {
		err := r.retrainNow(ctx, s.drift.mix(), emd)
		switch {
		case err == nil:
			s.res.DriftTriggers++
			s.res.DriftTriggerArrivals = append(s.res.DriftTriggerArrivals, len(s.res.PerArrival))
			return true, nil
		case errors.Is(err, errRetrainInFlight):
			// Another stream's synchronous retrain is running; its swap
			// will serve us too.
			return false, nil
		case errors.Is(err, errRetrainSuppressed):
			// The registry's backoff window or breaker swallowed the
			// trigger; keep serving the current epoch.
			s.res.DriftSuppressed++
			return false, nil
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Cancellation is the caller's stop signal, not a model
			// failure: abort the stream.
			return false, err
		default:
			// The retrain failed. The current epoch keeps serving — a
			// broken retrain path must never take arrivals down with it.
			// The registry recorded the failure (Stats, backoff, breaker)
			// and this stream's window rebaselines on return.
			s.res.DriftFailures++
			return false, nil
		}
	}
	started, suppressed := r.triggerRetrain(s.eng.retrainCtx, s.drift.mix(), emd)
	switch {
	case started:
		s.res.DriftTriggers++
		s.res.DriftTriggerArrivals = append(s.res.DriftTriggerArrivals, len(s.res.PerArrival))
	case suppressed:
		s.res.DriftSuppressed++
	}
	return false, nil
}

// waitBucket floors a wait to the configured resolution.
func (s *Stream) waitBucket(w time.Duration) time.Duration {
	return w - w%s.eng.opts.WaitResolution
}

// scheduleBatch obtains a model appropriate for the batch's wait pattern
// and produces an abstract schedule whose Placed tags are real query tags.
func (s *Stream) scheduleBatch(ctx context.Context, epoch *ModelEpoch, t time.Duration, batch []int) (*schedule.Schedule, error) {
	maxWait := time.Duration(0)
	allFresh := true
	for _, tag := range batch {
		w := s.waitBucket(t - s.tags[tag].arrival)
		if w > 0 {
			allFresh = false
		}
		if w > maxWait {
			maxWait = w
		}
	}
	switch {
	case allFresh:
		return s.scheduleWith(epoch.Model, batch, nil)
	case s.eng.opts.Shift && epoch.Model.Goal.Shiftable():
		m, err := s.shiftedModel(ctx, epoch, maxWait)
		if err != nil {
			return nil, err
		}
		return s.scheduleWith(m, batch, nil)
	default:
		ctx, cancel := s.eventContext(ctx)
		defer cancel()
		return s.scheduleAugmented(ctx, epoch, t, batch)
	}
}

// eventContext bounds ctx by the event's deadline (SubmitDeadline), if it
// has one. Only a model acquisition that can block derives it: a derived
// context costs a timer and allocations.
func (s *Stream) eventContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.eventDeadline <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, s.eventDeadline)
}

// derived returns the model epoch derives for key, running build for it.
// With Reuse on, the epoch's ω-map dedups builds across streams (exactly
// one stream builds; the rest wait for the entry), a successful build of a
// shift publishes its model to shift slot slot (−1 for none), and a
// re-acquisition counts as a CacheHit; with Reuse off every call builds.
// first reports whether this stream is using the model for the first time.
func (s *Stream) derived(ctx context.Context, epoch *ModelEpoch, key derivedKey, slot int, build func() (*Model, error)) (m *Model, first bool, err error) {
	if !s.eng.opts.Reuse {
		m, err = build()
		return m, true, err
	}
	if m, err = epoch.derived.getOrBuild(ctx, key, slot, &s.eng.builds, build); err != nil {
		return nil, false, err
	}
	return m, s.firstUse(epoch.Epoch, key, slot), nil
}

// firstUse records that the stream uses the derived model of epoch under
// key (shift slot slot, or −1) and reports whether it is the first time; a
// re-use counts as a CacheHit. A slot's record is one bit of shiftSeen, the
// rest go to seen.
func (s *Stream) firstUse(epoch uint64, key derivedKey, slot int) bool {
	if slot < 0 || slot >= maxShiftSlots {
		k := seenKey{epoch: epoch, key: key}
		if _, ok := s.seen[k]; ok {
			s.res.CacheHits++
			return false
		}
		s.seen[k] = struct{}{}
		return true
	}
	if epoch != s.shiftEpoch {
		clear(s.shiftSeen)
		s.shiftEpoch = epoch
	}
	word, bit := slot/64, uint64(1)<<(slot%64)
	for len(s.shiftSeen) <= word {
		s.shiftSeen = append(s.shiftSeen, 0)
	}
	if s.shiftSeen[word]&bit != 0 {
		s.res.CacheHits++
		return false
	}
	s.shiftSeen[word] |= bit
	return true
}

// shiftedModel returns a model for the goal shifted by w, adapting the
// epoch's model (§5) from the nearest smaller wait already in its ω-map.
// A model published in the epoch's shift slot for w is read with no lock
// and no deadline; only a miss, which may wait for a build, goes through
// the striped ω-map under the event's deadline.
func (s *Stream) shiftedModel(ctx context.Context, epoch *ModelEpoch, w time.Duration) (*Model, error) {
	key := derivedKey{wait: w}
	slot := int(w / s.eng.opts.WaitResolution)
	var m *Model
	var first bool
	if s.eng.opts.Reuse {
		m = epoch.derived.shifted(slot)
	}
	if m != nil {
		// getOrBuild's check: a dead context fails the event even on a hit.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first = s.firstUse(epoch.Epoch, key, slot)
	} else {
		ctx, cancel := s.eventContext(ctx)
		defer cancel()
		var err error
		m, first, err = s.derived(ctx, epoch, key, slot, func() (*Model, error) {
			return epoch.Model.shiftedFrom(ctx, w, epoch.derived.nearestShifted(w, slot))
		})
		if err != nil {
			return nil, err
		}
	}
	if first {
		s.res.Adaptations++
		s.res.AdaptReplayed += m.WarmSamples
		s.res.AdaptSolved += m.ColdSamples
	}
	return m, nil
}

// scheduleAugmented builds the "new template" specification of §6.3: each
// distinct (template, wait) pair among waited queries becomes an extra
// template whose latency is inflated by the wait, a model is trained for
// the augmented specification (or fetched from the epoch's ω-map when Reuse
// is on), and the batch is scheduled against it.
func (s *Stream) scheduleAugmented(ctx context.Context, epoch *ModelEpoch, t time.Duration, batch []int) (*schedule.Schedule, error) {
	base := epoch.Model.env.Templates
	augID := map[augKey]int{}
	templates := append([]workload.Template(nil), base...)
	queryTemplate := make([]int, len(batch)) // batch index -> (augmented) template ID
	var keyParts []string
	for i, tag := range batch {
		orig := int(s.tags[tag].template)
		w := s.waitBucket(t - s.tags[tag].arrival)
		if w == 0 {
			queryTemplate[i] = orig
			continue
		}
		k := augKey{template: orig, wait: w}
		id, ok := augID[k]
		if !ok {
			id = len(templates)
			augID[k] = id
			ot := base[orig]
			templates = append(templates, workload.Template{
				ID:          id,
				Name:        fmt.Sprintf("%s+%s", ot.Name, w),
				BaseLatency: ot.BaseLatency + w,
				HighRAM:     ot.HighRAM,
			})
			keyParts = append(keyParts, fmt.Sprintf("%d@%d", orig, w/s.eng.opts.WaitResolution))
		}
		queryTemplate[i] = id
	}

	sort.Strings(keyParts)
	build := func() (*Model, error) {
		env := &schedule.Env{Templates: templates, VMTypes: epoch.Model.env.VMTypes, Pred: epoch.Model.env.Pred}
		goal, err := augmentGoal(epoch.Model.Goal, base, augID)
		if err != nil {
			return nil, err
		}
		adv, err := NewAdvisor(env, s.eng.opts.Retrain)
		if err != nil {
			return nil, fmt.Errorf("core: online augmented model: %w", err)
		}
		return adv.TrainContext(ctx, goal)
	}
	m, first, err := s.derived(ctx, epoch, derivedKey{aug: strings.Join(keyParts, ",")}, -1, build)
	if err != nil {
		return nil, err
	}
	if first {
		s.res.Retrainings++
	}
	return s.scheduleWith(m, batch, queryTemplate)
}

// augmentGoal extends a goal to cover augmented templates. Workload-level
// goals (Max, Average, Percentile) apply unchanged — the inflated latency
// feeds straight into their penalty. PerQuery goals give each augmented
// template the deadline of the template it derives from: a query that has
// waited w and then takes (queue + execution) time q has true latency
// w + q, and comparing the inflated-latency completion to the original
// deadline computes exactly that.
func augmentGoal(g sla.Goal, base []workload.Template, augID map[augKey]int) (sla.Goal, error) {
	pq, ok := g.(sla.PerQuery)
	if !ok {
		return g, nil
	}
	// Order augmented IDs densely after the base templates.
	type entry struct {
		id   int
		orig int
		wait time.Duration
	}
	entries := make([]entry, 0, len(augID))
	for k, id := range augID {
		entries = append(entries, entry{id: id, orig: k.template, wait: k.wait})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	for _, e := range entries {
		if e.id != len(pq.Deadlines) {
			return nil, fmt.Errorf("core: augmented template IDs not dense: got %d, want %d", e.id, len(pq.Deadlines))
		}
		pq = pq.WithExtraTemplate(pq.Deadline(e.orig), base[e.orig].BaseLatency+e.wait)
	}
	return pq, nil
}

// scheduleWith runs the model's batch scheduler over real query tags,
// reusing the stream's schedule skeleton. tmpl, when non-nil, holds each
// batch query's (augmented) template; nil means each query's original one.
func (s *Stream) scheduleWith(m *Model, batch, tmpl []int) (*schedule.Schedule, error) {
	s.queries = s.queries[:0]
	for i, tag := range batch {
		t := int(s.tags[tag].template)
		if tmpl != nil {
			t = tmpl[i]
		}
		s.queries = append(s.queries, workload.Query{TemplateID: t, Tag: tag})
	}
	s.wl = workload.Workload{Templates: m.env.Templates, Queries: s.queries}
	sched, backing, err := m.scheduleBatchInto(&s.wl, s.sched, s.backing, s.priceMult)
	if err != nil {
		return nil, err
	}
	s.sched, s.backing = sched, backing
	return sched, nil
}

// place maps the abstract VMs of a schedule onto physical simulator VMs:
// abstract VM j of type i goes to the j-th active physical VM of type i in
// (free time, rental order), renting a new VM once they run out (DESIGN.md
// §2, "online scheduling interpretation"). Queries are enqueued with their
// true execution latency on the physical VM's type.
//
// It returns an error if a query's template cannot run on its assigned VM
// type: the batch scheduler only emits supported placements, so an
// unservable (template, VM type) pair here is a bug upstream — reported
// loudly instead of being absorbed as an absurd simulated latency.
func (s *Stream) place(t time.Duration, sched *schedule.Schedule) error {
	if h := s.eng.placeStarted; h != nil {
		h(s.res)
	}
	numTypes := len(s.eng.env.VMTypes)
	if cap(s.cands) < numTypes {
		s.cands = make([][]vmCandidate, numTypes)
		s.candNext = make([]int, numTypes)
		s.candReady = make([]int, numTypes)
	}
	s.cands = s.cands[:numTypes]
	s.candNext = s.candNext[:numTypes]
	s.candReady = s.candReady[:numTypes]
	for ti := range s.cands {
		s.cands[ti] = s.cands[ti][:0]
		s.candNext[ti] = 0
		s.candReady[ti] = 0
	}
	for _, vm := range s.sim.VMs() {
		if vm.Failed() {
			continue // a dead VM takes no new work
		}
		s.cands[vm.Type.ID] = append(s.cands[vm.Type.ID], vmCandidate{vm: vm, free: vm.NextFree(t)})
	}
	for _, avm := range sched.VMs {
		var target *cloud.SimVM
		// Consume candidates through a cursor, not by reslicing: an
		// advanced slice header would abandon the front of the pooled
		// backing array on every arrival and force periodic regrowth.
		if vm := s.nextCandidate(avm.TypeID); vm != nil {
			target = vm
			s.candNext[avm.TypeID]++
		} else {
			target = s.sim.Rent(s.eng.env.VMTypes[avm.TypeID], t)
			s.res.VMsRented++
		}
		for _, q := range avm.Queue {
			orig := int(s.tags[q.Tag].template)
			lat, ok := s.eng.env.Latency(orig, target.Type.ID)
			if !ok {
				// Under Degrade, reroute the unservable query to the
				// fallback VM type instead of failing the stream: partial
				// placements of this event have already been enqueued, so
				// absorbing the error here is the only exactly-once option.
				if ft := s.eng.fallbackType; s.eng.opts.Degrade && ft >= 0 {
					if flat, fok := s.eng.env.Latency(orig, ft); fok {
						s.rerouteFallback(ft, t).Enqueue(q.Tag, orig, t, flat)
						s.res.DegradedPlacements++
						s.eng.degradedPlacements.Add(1)
						continue
					}
				}
				return fmt.Errorf("core: online placement: template %d (query tag %d) cannot run on VM type %d", orig, q.Tag, target.Type.ID)
			}
			target.Enqueue(q.Tag, orig, t, lat)
		}
	}
	return nil
}

// rerouteFallback returns an active VM of the fallback type for a rerouted
// query — the free-soonest unconsumed candidate if one exists, a fresh rent
// otherwise. A freshly rented VM joins the candidate list so later reroutes
// (and later abstract VMs of that type) share it instead of renting again.
func (s *Stream) rerouteFallback(ft int, t time.Duration) *cloud.SimVM {
	if vm := s.nextCandidate(ft); vm != nil {
		return vm
	}
	vm := s.sim.Rent(s.eng.env.VMTypes[ft], t)
	s.res.VMsRented++
	s.cands[ft] = append(s.cands[ft], vmCandidate{vm: vm, free: vm.ReadyAt})
	return vm
}

// selectSteps is how many candidates of one VM type nextCandidate selects
// one at a time; past them it sorts the rest once.
const selectSteps = 2

// nextCandidate returns the unconsumed candidate of VM type ti that comes
// first in (free time, rental order), moved to the type's cursor but not
// consumed, or nil when every candidate is consumed. The order is a stable
// sort by free time, done lazily: place consumes only as many candidates
// as the schedule has abstract VMs of the type — usually one or two — so
// the first selectSteps are selected: the earliest free (earliest rented
// among ties, as candidates are gathered in rental order) moves to the
// cursor and the ones it passes shift up one place, keeping their order.
// A type that needs more has the rest sorted stably once, so a schedule
// with many abstract VMs of one type costs about what sorting them all up
// front did. Candidates before candReady are in place already, so a second
// call at one cursor (a fallback reroute's peek) does no work.
func (s *Stream) nextCandidate(ti int) *cloud.SimVM {
	c, next := s.cands[ti], s.candNext[ti]
	switch {
	case next >= len(c):
		return nil
	case next < s.candReady[ti]:
	case next < selectSteps:
		best := next
		for i := next + 1; i < len(c); i++ {
			if c[i].free < c[best].free {
				best = i
			}
		}
		picked := c[best]
		copy(c[next+1:best+1], c[next:best])
		c[next] = picked
		s.candReady[ti] = next + 1
	default:
		slices.SortStableFunc(c[next:], func(a, b vmCandidate) int {
			return cmp.Compare(a.free, b.free)
		})
		s.candReady[ti] = len(c)
	}
	return c[next].vm
}

// derivedKey identifies a derived model in its epoch's ω-map: a shifted
// model by its wait alone (aug empty), an augmented-template model by its
// sorted ω-pattern. One epoch serves one goal, so it only ever asks for one
// of the two kinds.
type derivedKey struct {
	wait time.Duration
	aug  string // sorted "template@waitBucket" pairs; empty for a shift
}

// seenKey is a stream's record of a derived model it has used: the epoch
// number and key, never the model, so a live stream pins nothing.
type seenKey struct {
	epoch uint64
	key   derivedKey
}

// mix64 is the SplitMix64 finalizer: a cheap, high-quality 64-bit mixer the
// cache uses to spread keys over its stripes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash folds the key into a stripe selector: FNV-1a over the ω-pattern,
// seeded with the wait. Allocation-free — it runs on every derived-model
// lookup.
func (k derivedKey) hash() uint64 {
	h := uint64(k.wait)
	for i := 0; i < len(k.aug); i++ {
		h ^= uint64(k.aug[i])
		h *= 1099511628211
	}
	return mix64(h)
}

// modelEntry is one ω-map slot. The builder closes done when the model (or
// error) is in place; concurrent requesters wait on it — duplicate
// suppression across tenants.
type modelEntry struct {
	done chan struct{}
	m    *Model
	err  error
}

// cacheShard is one mutex stripe of the ω-map: its own lock, its own map
// (made on the first insert). Lookups and inserts for a key touch only the
// key's shard, so unrelated derived-model traffic never serializes.
type cacheShard struct {
	mu sync.Mutex
	m  map[derivedKey]*modelEntry
}

// cacheStripes is the ω-map stripe count: enough stripes that even 10k
// concurrent streams rarely collide on a lock, at a memory cost of a few
// empty stripes per epoch.
const cacheStripes = 64

// modelCache is an epoch's ω-map (§6.3.1): the models derived from that
// epoch's model, shared by every stream serving it and striped over
// power-of-two cacheShard stripes so lookups from many streams do not
// serialize on one lock. It lives and dies with its ModelEpoch, so a swap
// releases it with nothing to evict.
type modelCache struct {
	shards []cacheShard
	mask   uint64
	// shifts publishes the finished shifted models by shift slot, wait /
	// WaitResolution, for waits under maxShiftSlots slots: a hit is two
	// atomic loads, with no lock and no map probe. getOrBuild publishes a
	// successful build before it wakes the build's waiters, and the stripes
	// stay the builder and the home of every other key. Publishes serialize
	// on shiftsMu; one past the end publishes a copy at least twice the
	// size, and a reader holding the old array misses at worst a newer
	// model and goes through the stripes.
	shifts   atomic.Pointer[[]atomic.Pointer[Model]]
	shiftsMu sync.Mutex
}

// maxShiftSlots bounds the shift slots of an ω-map, so that one very long
// wait cannot make every epoch carry a huge array: 16384 slots are 4.5
// hours at the default 1 s resolution. Longer waits are served by the
// stripes alone.
const maxShiftSlots = 1 << 14

// newModelCache returns an empty ω-map, rounding stripes up to a power of
// two. Epochs use cacheStripes; stripes == 1 degenerates to a single-lock
// ω-map, the baseline BenchmarkShardedCacheContention measures against.
func newModelCache(stripes int) *modelCache {
	n := 1
	for n < stripes {
		n <<= 1
	}
	return &modelCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
}

// size reports the total number of cached derived models across stripes.
func (c *modelCache) size() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// shifted returns the model published in shift slot slot, or nil.
func (c *modelCache) shifted(slot int) *Model {
	p := c.shifts.Load()
	if p == nil || slot < 0 || slot >= len(*p) {
		return nil
	}
	return (*p)[slot].Load()
}

// publishShift publishes m in shift slot slot, growing the array by
// doubling when the slot lies past its end. Slots outside
// [0, maxShiftSlots) are not published.
func (c *modelCache) publishShift(slot int, m *Model) {
	if slot < 0 || slot >= maxShiftSlots {
		return
	}
	c.shiftsMu.Lock()
	defer c.shiftsMu.Unlock()
	var slots []atomic.Pointer[Model]
	if p := c.shifts.Load(); p != nil {
		slots = *p
	}
	if slot >= len(slots) {
		n := max(16, 2*len(slots))
		for n <= slot {
			n *= 2
		}
		grown := make([]atomic.Pointer[Model], n)
		for i := range slots {
			grown[i].Store(slots[i].Load())
		}
		c.shifts.Store(&grown)
		slots = grown
	}
	slots[slot].Store(m)
}

// nearestShifted returns the finished shifted model with the largest wait
// below wait, whose shift slot is slot, or nil: the looser goal whose
// solved paths a new build replays (Model.shiftedFrom). It runs once per
// build, never per lookup. While every smaller wait has a slot it scans the
// slots downward; past them it locks one stripe at a time.
func (c *modelCache) nearestShifted(wait time.Duration, slot int) *Model {
	if slot <= maxShiftSlots {
		if p := c.shifts.Load(); p != nil {
			for i := min(slot, len(*p)) - 1; i > 0; i-- {
				if m := (*p)[i].Load(); m != nil {
					return m
				}
			}
		}
		return nil
	}
	var near *Model
	best := time.Duration(0)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.m {
			if k.aug != "" || k.wait >= wait || k.wait <= best {
				continue
			}
			select {
			case <-e.done:
				if e.err == nil {
					near, best = e.m, k.wait
				}
			default: // still building
			}
		}
		s.mu.Unlock()
	}
	return near
}

// getOrBuild returns the cached model for key, building it at most once at
// a time across concurrent requesters and counting each build in builds.
// Only the key's stripe is locked — and only around the map probe, never
// across a build — so concurrent lookups of unrelated keys proceed in
// parallel. A successful build is published to shift slot slot (−1 for
// none) before its waiters wake. A failed build (including a cancelled
// one) is never published; it is removed, and
// waiting requesters do not adopt the failure — another tenant's cancelled
// context must not abort a healthy stream — they retry, becoming the
// builder themselves or waiting on a newer build. A builder always returns
// its own outcome, and a requester whose own ctx expires returns its ctx
// error without waiting out a build.
func (c *modelCache) getOrBuild(ctx context.Context, key derivedKey, slot int, builds *atomic.Int64, build func() (*Model, error)) (*Model, error) {
	s := &c.shards[key.hash()&c.mask]
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		e, ok := s.m[key]
		if !ok {
			if s.m == nil {
				s.m = map[derivedKey]*modelEntry{}
			}
			e = &modelEntry{done: make(chan struct{})}
			s.m[key] = e
			s.mu.Unlock()
			builds.Add(1)
			e.m, e.err = build()
			if e.err != nil {
				// Nothing else removes a slot, so it is still ours.
				s.mu.Lock()
				delete(s.m, key)
				s.mu.Unlock()
			} else {
				c.publishShift(slot, e.m)
			}
			close(e.done)
			return e.m, e.err
		}
		s.mu.Unlock()
		select {
		case <-e.done:
			if e.err == nil {
				return e.m, nil
			}
			// The builder failed (perhaps its ctx was cancelled); retry.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}
