package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wisedb/internal/store"
)

// ModelEpoch is one generation of a serving model: the model, a
// monotonically increasing epoch number, and the normalized template-arrival
// mix the model was trained to serve. Streams load the current epoch once
// per arrival event; everything inside an epoch is read-only except its
// ω-map cache of derived models, so a loaded epoch stays valid for the
// whole event even if a swap lands mid-arrival.
type ModelEpoch struct {
	// Model is the serving model of this epoch.
	Model *Model
	// Epoch numbers generations from 0 (the base model).
	Epoch uint64
	// Mix is the normalized template distribution the model targets. The
	// per-stream drift detectors compare live arrival histograms against
	// it — after a swap the detectors automatically re-baseline to the new
	// epoch's mix.
	Mix []float64
	// Hash is the model's content hash when already known — epochs
	// installed from a checkpoint store carry the hash their lineage
	// recorded, sparing CheckpointTo a full re-encode on re-attach.
	// Zero for freshly trained epochs (computed when checkpointed).
	Hash uint64

	// derived is this epoch's ω-map (§6.3.1): the models shifted or
	// augmented from Model, built on demand by the streams serving it. It
	// goes with the epoch, so a superseded base's derived models are never
	// served, and nothing but a stream still holding the epoch keeps them.
	derived *modelCache
}

// RetrainFunc builds a replacement model for the observed arrival mix. cur
// is the epoch that was current when the retrain was triggered.
type RetrainFunc func(ctx context.Context, cur *ModelEpoch, mix []float64) (*Model, error)

// ModelRegistry is the model lifecycle subsystem of the online engine
// (§6's adaptive-modeling loop, productionized): it holds the current
// serving epoch behind an atomic pointer, runs at most one drift retrain at
// a time, and hot-swaps the result in without stalling arrivals. Streams
// observe the swap at their next arrival event; in-flight events keep the
// epoch they loaded, so no arrival is ever dropped or scheduled twice.
//
// A ModelRegistry is safe for concurrent use.
type ModelRegistry struct {
	cur     atomic.Pointer[ModelEpoch]
	retrain RetrainFunc

	// inFlight gates the single retrain slot; wg lets tests and shutdown
	// drain a background retrain (and any background checkpoint).
	inFlight atomic.Bool
	wg       sync.WaitGroup
	swapMu   sync.Mutex // serializes epoch increments

	// ckpt, when non-nil, is the durable model store every installed
	// epoch is checkpointed to (see CheckpointTo). Guarded by swapMu.
	ckpt *store.ModelStore

	triggers, swaps, failures atomic.Int64
	lastErr                   atomic.Pointer[error]

	checkpoints, checkpointFailures atomic.Int64
	lastCkptErr                     atomic.Pointer[error]
	ckptNanos                       atomic.Int64
	// lastCkptEpoch and lastCkptBytes are the newest committed epoch and
	// its file's size, updated together under ckptMu: background
	// checkpoints of successive epochs may finish out of order.
	ckptMu        sync.Mutex
	lastCkptEpoch uint64
	lastCkptBytes int64

	// Retry discipline (see robust.go): policy, breaker position, backoff
	// window, and the deterministic jitter cursor, all guarded by robustMu.
	robustMu       sync.Mutex
	policy         RetryPolicy
	breaker        breakerState
	breakerBudget  int
	consecFailures int
	suppress       int
	jitterN        uint64

	backoffSuppressed, breakerRejected atomic.Int64
	breakerOpens, breakerCloses        atomic.Int64
	checkpointRetries                  atomic.Int64

	// Retrain cost and warm-reuse accounting (see WarmTrain): per-retrain
	// wall time and the warm/cold sample and cache-hit split of the last
	// successful retrain, plus running totals.
	lastRetrainMS, retrainMSTotal        atomic.Int64
	warmSamplesTotal, coldSamplesTotal   atomic.Int64
	retrainCacheHits, retrainCacheMisses atomic.Int64
}

// NewModelRegistry returns a registry serving base as epoch 0, with the
// default drift response: re-train at the base model's own scale with
// sample workloads drawn from the observed mix (see DriftRetrain).
func NewModelRegistry(base *Model) *ModelRegistry {
	if base == nil {
		panic("core: NewModelRegistry requires a base model")
	}
	r := &ModelRegistry{retrain: DriftRetrain, policy: DefaultRetryPolicy()}
	r.cur.Store(&ModelEpoch{Model: base, Epoch: 0, Mix: base.TrainingMix(), derived: newModelCache(cacheStripes)})
	return r
}

// SetRetrain replaces the drift response. Call before serving begins.
func (r *ModelRegistry) SetRetrain(f RetrainFunc) { r.retrain = f }

// Current returns the serving epoch. It never returns nil and never
// allocates — it is on the per-arrival hot path.
func (r *ModelRegistry) Current() *ModelEpoch { return r.cur.Load() }

// Swap installs m as the next epoch and returns its number. mix is the
// arrival mix the model targets; nil uses the model's own training mix.
func (r *ModelRegistry) Swap(m *Model, mix []float64) uint64 {
	return r.install(m, mix, store.Lineage{Reason: "manual"})
}

// install is the single epoch-installation path: it assigns the next epoch
// number, publishes the epoch with an empty ω-map, and — when a checkpoint
// store is attached — commits the epoch durably in the background, off
// every arrival path. lin carries the install's provenance (reason, trigger
// EMD); epoch numbers, parent, mix, and model hash are filled here.
func (r *ModelRegistry) install(m *Model, mix []float64, lin store.Lineage) uint64 {
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	if mix == nil {
		mix = m.TrainingMix()
	}
	prev := r.cur.Load()
	next := &ModelEpoch{Model: m, Epoch: prev.Epoch + 1, Mix: mix, derived: newModelCache(cacheStripes)}
	r.cur.Store(next)
	r.swaps.Add(1)
	if r.ckpt != nil {
		lin.Epoch = next.Epoch
		lin.Parent = prev.Epoch
		lin.Mix = mix
		r.wg.Add(1)
		go func(ms *store.ModelStore) {
			defer r.wg.Done()
			r.commitCheckpoint(ms, next, lin)
		}(r.ckpt)
	}
	return next.Epoch
}

// commitCheckpoint is checkpoint for the background commit of an installed
// epoch. Failures are recorded in Stats and never disturb serving: the
// in-memory epoch keeps serving, and the store keeps its previous committed
// state.
func (r *ModelRegistry) commitCheckpoint(ms *store.ModelStore, e *ModelEpoch, lin store.Lineage) {
	if err := r.checkpoint(ms, e, lin); err != nil {
		r.checkpointFailures.Add(1)
		r.lastCkptErr.Store(&err)
	}
}

// checkpoint encodes one epoch and commits it durably under lin (its model
// hash filled in here), retrying transient store faults per the retry
// policy. A committed checkpoint is counted with what it cost: the file's
// size and the time its encode and commit took.
func (r *ModelRegistry) checkpoint(ms *store.ModelStore, e *ModelEpoch, lin store.Lineage) error {
	start := time.Now()
	data, hash, err := encodeModel(e.Model)
	if err != nil {
		return err
	}
	lin.ModelHash = hash
	if err := r.commitWithRetry(ms, data, lin); err != nil {
		return err
	}
	r.checkpoints.Add(1)
	r.ckptMu.Lock()
	if e.Epoch >= r.lastCkptEpoch {
		r.lastCkptEpoch, r.lastCkptBytes = e.Epoch, int64(len(data))
	}
	r.ckptMu.Unlock()
	r.ckptNanos.Add(int64(time.Since(start)))
	return nil
}

// lastCheckpointBytes returns the size of the newest committed epoch's
// checkpoint file, 0 before the first.
func (r *ModelRegistry) lastCheckpointBytes() int64 {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	return r.lastCkptBytes
}

// commitWithRetry attempts a durable commit up to the policy's attempt
// bound, backing off (doubling, wall-clock — this never runs on an arrival
// path) between attempts. A store.Commit that fails leaves the store's
// previous committed state intact and its manifest untouched, so a retry is
// a clean re-commit, not a repair.
func (r *ModelRegistry) commitWithRetry(ms *store.ModelStore, data []byte, lin store.Lineage) error {
	p := r.retryPolicy()
	var err error
	for attempt := 0; attempt < p.CheckpointAttempts; attempt++ {
		if attempt > 0 {
			r.checkpointRetries.Add(1)
			if p.CheckpointBackoff > 0 {
				time.Sleep(p.RetryDelay(attempt, 0))
			}
		}
		if err = ms.Commit(data, lin); err == nil {
			return nil
		}
	}
	return err
}

// CheckpointTo attaches a durable model store: the current epoch is
// committed synchronously (so "train, then serve with checkpointing"
// persists the base model before the first arrival), and every subsequent
// epoch install is committed by a background goroutine — the checkpoint
// never runs on an arrival path, preserving the serving engine's
// steady-state zero-allocation guarantee.
//
// The store must continue this registry's lineage. A registry warm-started
// from ms attaches cleanly (its current epoch is already committed and is
// not re-committed). A store whose newest epoch is ahead of — or holds a
// different model at — the registry's current epoch demonstrably belongs
// to another serving lineage and is refused, rather than silently
// colliding every future epoch number with the store's history. A store
// strictly *behind* the registry cannot be audited the same way (the
// registry's earlier epochs were never durably recorded anywhere) and is
// assumed to be this lineage's own older history — e.g. checkpointing
// attached late after a warm start — so the current epoch is committed on
// top of it; attach a foreign directory in that state and its manifest
// will interleave two histories.
func (r *ModelRegistry) CheckpointTo(ms *store.ModelStore) error {
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	cur := r.cur.Load()
	if latest, ok := ms.LatestEpoch(); ok && latest >= cur.Epoch {
		if latest > cur.Epoch {
			return fmt.Errorf("core: checkpoint store %s is at epoch %d, ahead of this registry's epoch %d — warm-start from it or use a fresh directory", ms.Dir(), latest, cur.Epoch)
		}
		hash := cur.Hash
		if hash == 0 {
			// Identity unknown (the epoch was not installed from a
			// store): pay one encode to establish it.
			var err error
			if _, hash, err = encodeModel(cur.Model); err != nil {
				return fmt.Errorf("core: checkpoint epoch %d: %w", cur.Epoch, err)
			}
		}
		entries := ms.Entries()
		if stored := entries[len(entries)-1]; stored.ModelHash != hash {
			return fmt.Errorf("core: checkpoint store %s already holds a different model at epoch %d (hash %016x, serving %016x) — it records another serving lineage", ms.Dir(), cur.Epoch, stored.ModelHash, hash)
		}
		r.ckpt = ms // warm-started from this store: current epoch already durable
		return nil
	}
	reason := "base"
	parent := cur.Epoch
	if cur.Epoch > 0 {
		reason = "manual"
		parent = cur.Epoch - 1
	}
	if err := r.checkpoint(ms, cur, store.Lineage{Epoch: cur.Epoch, Parent: parent, Reason: reason, Mix: cur.Mix}); err != nil {
		return fmt.Errorf("core: checkpoint epoch %d: %w", cur.Epoch, err)
	}
	r.ckpt = ms
	return nil
}

// loadLatestEpoch decodes a store's newest intact epoch into a serving
// epoch: the model under its persisted epoch number and arrival mix.
func loadLatestEpoch(ms *store.ModelStore) (*ModelEpoch, error) {
	lin, data, err := ms.Latest()
	if err != nil {
		return nil, fmt.Errorf("core: warm start: %w", err)
	}
	m, err := DecodeModel(data)
	if err != nil {
		return nil, fmt.Errorf("core: warm start epoch %d: %w", lin.Epoch, err)
	}
	mix := lin.Mix
	if len(mix) != len(m.env.Templates) {
		mix = m.TrainingMix()
	}
	return &ModelEpoch{Model: m, Epoch: lin.Epoch, Mix: mix, Hash: lin.ModelHash, derived: newModelCache(cacheStripes)}, nil
}

// installEpoch publishes a warm-started epoch wholesale — persisted epoch
// number included — under the swap lock, like a hot swap.
func (r *ModelRegistry) installEpoch(e *ModelEpoch) {
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	r.cur.Store(e)
}

// WarmStart replaces the registry's serving state with the store's newest
// intact epoch: the decoded model starts serving under its persisted epoch
// number and arrival mix, so lineage continues across the restart and no
// training search runs. Streams observe the install like any hot swap —
// and rebaseline their drift detectors against the restored mix rather
// than re-triggering against a stale one (see the per-stream epoch
// tracking in onArrival). The installed epoch is returned.
func (r *ModelRegistry) WarmStart(ms *store.ModelStore) (*ModelEpoch, error) {
	e, err := loadLatestEpoch(ms)
	if err != nil {
		return nil, err
	}
	r.installEpoch(e)
	return e, nil
}

// TriggerRetrain starts a background retrain toward mix unless one is
// already in flight, and reports whether this call started it. On success
// the result is hot-swapped in; on failure the current epoch keeps serving
// and the error is retained in Stats. The retrain runs under ctx — pass a
// context that outlives the triggering arrival (the engine passes its
// background context, not the stream's, so a finishing stream does not
// abort a retrain other streams will benefit from).
func (r *ModelRegistry) TriggerRetrain(ctx context.Context, mix []float64) bool {
	started, _ := r.triggerRetrain(ctx, mix, 0)
	return started
}

// triggerRetrain is TriggerRetrain also carrying the EMD observed at the
// drift trigger, recorded in the resulting epoch's checkpoint lineage. It
// reports whether this call started a retrain, and — when it did not —
// whether the retry discipline suppressed it (as opposed to one already
// being in flight).
func (r *ModelRegistry) triggerRetrain(ctx context.Context, mix []float64, emd float64) (started, suppressed bool) {
	if !r.admitTrigger() {
		return false, true
	}
	if !r.inFlight.CompareAndSwap(false, true) {
		return false, false
	}
	r.triggers.Add(1)
	cur := r.Current()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.inFlight.Store(false)
		r.runRetrain(ctx, cur, mix, emd)
	}()
	return true, false
}

// errRetrainInFlight reports that RetrainNow found another retrain running;
// callers treat it as "someone else is already handling this drift".
var errRetrainInFlight = errors.New("core: a drift retrain is already in flight")

// RetrainNow is TriggerRetrain running synchronously: the swap (or failure)
// has happened by the time it returns. Streams configured with
// DriftOptions.Synchronous use it so drift recovery is deterministic.
func (r *ModelRegistry) RetrainNow(ctx context.Context, mix []float64) error {
	return r.retrainNow(ctx, mix, 0)
}

// retrainNow is RetrainNow also carrying the trigger EMD for lineage. It
// returns errRetrainSuppressed when the retry discipline swallowed the
// trigger without attempting a retrain.
func (r *ModelRegistry) retrainNow(ctx context.Context, mix []float64, emd float64) error {
	if !r.admitTrigger() {
		return errRetrainSuppressed
	}
	if !r.inFlight.CompareAndSwap(false, true) {
		return errRetrainInFlight
	}
	defer r.inFlight.Store(false)
	r.triggers.Add(1)
	return r.runRetrain(ctx, r.Current(), mix, emd)
}

// runRetrain builds the replacement model and swaps it in, feeding the
// outcome back into the breaker/backoff state either way. The retrain's
// wall time and warm-reuse split are recorded in the registry counters and
// in the installed epoch's checkpoint lineage, so drift-recovery cost is
// observable live (Stats, the daemon's /stats) and post-hoc (wisedb
// inspect's lineage table).
func (r *ModelRegistry) runRetrain(ctx context.Context, cur *ModelEpoch, mix []float64, emd float64) error {
	start := time.Now()
	m, err := r.retrain(ctx, cur, mix)
	r.noteRetrainResult(err)
	if err != nil {
		r.failures.Add(1)
		r.lastErr.Store(&err)
		return err
	}
	elapsedMS := time.Since(start).Milliseconds()
	r.lastRetrainMS.Store(elapsedMS)
	r.retrainMSTotal.Add(elapsedMS)
	r.warmSamplesTotal.Add(int64(m.WarmSamples))
	r.coldSamplesTotal.Add(int64(m.ColdSamples))
	r.retrainCacheHits.Add(int64(m.TrainingCacheHits))
	r.retrainCacheMisses.Add(int64(m.TrainingCacheMisses))
	r.install(m, mix, store.Lineage{
		Reason: "drift", EMD: emd,
		RetrainMS:   elapsedMS,
		WarmSamples: m.WarmSamples, ColdSamples: m.ColdSamples,
		CacheHits: int64(m.TrainingCacheHits), CacheMisses: int64(m.TrainingCacheMisses),
	})
	return nil
}

// Wait blocks until any background retrain (swap included) and any
// background checkpoint commit have completed.
func (r *ModelRegistry) Wait() { r.wg.Wait() }

// Drain quiesces the registry for shutdown: background retrains and
// checkpoint commits are waited out, and if an attached store is still
// behind the serving epoch (a background commit exhausted its retries
// during a fault), one final synchronous commit is attempted. After
// Drain returns nil, the attached store warm-starts into exactly the
// epoch that was serving; with no store attached Drain is just Wait.
func (r *ModelRegistry) Drain() error {
	r.wg.Wait()
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	ms := r.ckpt
	if ms == nil {
		return nil
	}
	cur := r.cur.Load()
	if latest, ok := ms.LatestEpoch(); ok && latest >= cur.Epoch {
		return nil
	}
	parent := cur.Epoch
	if cur.Epoch > 0 {
		parent = cur.Epoch - 1
	}
	if err := r.checkpoint(ms, cur, store.Lineage{Epoch: cur.Epoch, Parent: parent, Reason: "drain", Mix: cur.Mix}); err != nil {
		r.checkpointFailures.Add(1)
		return fmt.Errorf("core: drain epoch %d: %w", cur.Epoch, err)
	}
	return nil
}

// RegistryStats is a snapshot of the registry's lifecycle counters.
type RegistryStats struct {
	// Epoch is the current serving generation (0 = base model).
	Epoch uint64
	// Triggers counts retrains started (background and synchronous);
	// Swaps counts models installed; Failures counts retrains that
	// errored without swapping.
	Triggers, Swaps, Failures int64
	// InFlight reports whether a background retrain is running.
	InFlight bool
	// LastErr is the most recent retrain failure, nil if none. Like
	// LastCheckpointErr it stays out of JSON (an error value has no
	// exported fields and would encode as {}).
	LastErr error `json:"-"`
	// Checkpoints counts epochs durably committed to the attached model
	// store; CheckpointFailures counts commits that errored (serving is
	// never disturbed by one — see CheckpointTo).
	Checkpoints, CheckpointFailures int64
	// LastCheckpointErr is the most recent checkpoint failure, nil if
	// none.
	LastCheckpointErr error `json:"-"`
	// LastCheckpointBytes is the size of the newest committed epoch's
	// checkpoint file; CheckpointNanos sums, over the committed
	// checkpoints, the time each took to encode and commit (retries
	// included) — off every arrival path, but what an epoch costs to keep.
	LastCheckpointBytes, CheckpointNanos int64
	// LastRetrainMS is the wall time of the most recent successful drift
	// retrain in milliseconds; TotalRetrainMS sums all successful
	// retrains. Failed retrains record neither.
	LastRetrainMS, TotalRetrainMS int64
	// WarmSamples and ColdSamples split the training samples of all
	// successful retrains into warm replays (prior-epoch search reused,
	// see WarmTrain) and fresh solves. RetrainCacheHits/Misses total the
	// cross-epoch transposition-cache outcomes of those retrains —
	// together they quantify how much drift recovery the warm path
	// avoided recomputing.
	WarmSamples, ColdSamples             int64
	RetrainCacheHits, RetrainCacheMisses int64
	// Robustness is the failure-path discipline's state: backoff and
	// breaker counters, breaker position, checkpoint retries.
	Robustness RobustnessStats
}

// Stats returns a consistent-enough snapshot for monitoring and tests.
func (r *ModelRegistry) Stats() RegistryStats {
	s := RegistryStats{
		Epoch:               r.Current().Epoch,
		Triggers:            r.triggers.Load(),
		Swaps:               r.swaps.Load(),
		Failures:            r.failures.Load(),
		InFlight:            r.inFlight.Load(),
		Checkpoints:         r.checkpoints.Load(),
		CheckpointFailures:  r.checkpointFailures.Load(),
		LastCheckpointBytes: r.lastCheckpointBytes(),
		CheckpointNanos:     r.ckptNanos.Load(),
		LastRetrainMS:       r.lastRetrainMS.Load(),
		TotalRetrainMS:      r.retrainMSTotal.Load(),
		WarmSamples:         r.warmSamplesTotal.Load(),
		ColdSamples:         r.coldSamplesTotal.Load(),
		RetrainCacheHits:    r.retrainCacheHits.Load(),
		RetrainCacheMisses:  r.retrainCacheMisses.Load(),
		Robustness: RobustnessStats{
			BackoffSuppressed: r.backoffSuppressed.Load(),
			BreakerRejected:   r.breakerRejected.Load(),
			BreakerOpens:      r.breakerOpens.Load(),
			BreakerCloses:     r.breakerCloses.Load(),
			CheckpointRetries: r.checkpointRetries.Load(),
		},
	}
	r.robustMu.Lock()
	s.Robustness.Breaker = r.breaker.String()
	s.Robustness.ConsecutiveFailures = r.consecFailures
	r.robustMu.Unlock()
	if p := r.lastErr.Load(); p != nil {
		s.LastErr = *p
	}
	if p := r.lastCkptErr.Load(); p != nil {
		s.LastCheckpointErr = *p
	}
	return s
}

// DriftRetrain is the default drift response: re-train a model for the same
// goal at the base model's own scale, drawing sample workloads from the
// observed arrival mix instead of the uniform distribution. The new model
// retains training data so the linear-shifting optimization keeps working
// against it after the swap.
//
// The retrain is warm (see WarmTrain): it re-seeds from the superseded
// epoch's transposition cache and replays unchanged sample searches, which
// cuts drift-recovery latency without changing the result — the warm model
// is bit-identical in serving content to a cold retrain. Goals or configs
// the warm path cannot serve soundly fall back to a cold Train inside
// WarmTrainContext.
func DriftRetrain(ctx context.Context, cur *ModelEpoch, mix []float64) (*Model, error) {
	adv, err := driftAdvisor(cur, mix)
	if err != nil {
		return nil, err
	}
	return adv.WarmTrainContext(ctx, cur.Model.Goal, cur.Model)
}

// ColdDriftRetrain is DriftRetrain without warm reuse: every sample is
// solved from scratch with an empty transposition cache. It exists as the
// ablation baseline — install it with SetRetrain to measure what the warm
// path saves (the recovery experiment and BenchmarkColdRetrain do); the
// models it produces are bit-identical to DriftRetrain's.
func ColdDriftRetrain(ctx context.Context, cur *ModelEpoch, mix []float64) (*Model, error) {
	adv, err := driftAdvisor(cur, mix)
	if err != nil {
		return nil, err
	}
	return adv.TrainContext(ctx, cur.Model.Goal)
}

// driftAdvisor builds the retraining advisor both drift responses share:
// the base model's own configuration and environment, retargeted at the
// observed mix.
func driftAdvisor(cur *ModelEpoch, mix []float64) (*Advisor, error) {
	base := cur.Model
	cfg := base.TrainingConfig
	cfg.SampleWeights = mix
	cfg.KeepTrainingData = true
	return NewAdvisor(base.env, cfg)
}
