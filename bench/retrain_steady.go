package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"wisedb/internal/core"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

const (
	spRetrainNow     = "core.registry.retrain_now"
	spCheckpointWait = "core.registry.checkpoint_wait"
)

// scratchDir is where retrain-steady keeps its model stores: inside the
// working directory (the benchmark writes nowhere else), under the build
// directory the root .gitignore names.
const scratchDir = ".bench_build/stores"

// retrainInstance is retrain-steady: the drift lifecycle. Every round
// builds a fresh engine over the base epoch, attaches a fresh store, and
// retrains along the same mix walk; RetrainNow returns when the new epoch
// serves, Wait when its checkpoint is committed.
type retrainInstance struct {
	in    *inputs
	base  *core.Model
	mixes [][]float64
	eval  *workload.Workload
	dir   string
	seq   int
	// reg and ms are the last round's, kept referenced for the live-heap
	// reading.
	reg *core.ModelRegistry
	ms  *store.ModelStore
}

func setupRetrain(in *inputs) (instance, error) {
	cfg := in.sz.serving
	cfg.SampleWeights = retrainCentre
	adv, err := core.NewAdvisor(in.env, cfg)
	if err != nil {
		return nil, err
	}
	base, err := adv.Train(in.goal)
	if err != nil {
		return nil, err
	}
	mixes, err := in.mixWalk(in.sz.retrainOps)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchDir, "retrain-")
	if err != nil {
		return nil, err
	}
	return &retrainInstance{in: in, base: base, mixes: mixes, eval: in.evalWorkload(in.sz.evalQueries), dir: dir}, nil
}

// freshRegistry builds the round's engine and attaches an empty store.
func (r *retrainInstance) freshRegistry() (*core.ModelRegistry, *store.ModelStore, error) {
	r.seq++
	ms, err := store.Open(filepath.Join(r.dir, fmt.Sprintf("round-%d", r.seq)))
	if err != nil {
		return nil, nil, err
	}
	reg := core.NewOnlineScheduler(r.base, serveOptions()).Registry()
	if err := reg.CheckpointTo(ms); err != nil {
		return nil, nil, err
	}
	return reg, ms, nil
}

func (r *retrainInstance) round(tr *tracer, lat *[]int64) (roundResult, error) {
	ctx := context.Background()
	rr := roundResult{obs: map[string]float64{}}
	if r.ms != nil {
		if err := os.RemoveAll(r.ms.Dir()); err != nil {
			return rr, err
		}
	}
	reg, ms, err := r.freshRegistry()
	if err != nil {
		return rr, err
	}
	r.reg, r.ms = reg, ms
	rr.counters, err = measure(func() error {
		for i, mix := range r.mixes {
			t0 := time.Now()
			sp := tr.begin(spRetrainNow, -1, uint32(i))
			err := reg.RetrainNow(ctx, mix)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("retrain %d: %w", i, err)
			}
			*lat = append(*lat, int64(time.Since(t0)))
			sp = tr.begin(spCheckpointWait, -1, uint32(i))
			reg.Wait()
			tr.end(sp)
			rr.ops++
		}
		return nil
	})
	if err != nil {
		return rr, err
	}

	st := reg.Stats()
	n := int64(len(r.mixes))
	if st.Swaps != n || st.Failures != 0 || st.Checkpoints != n+1 || st.CheckpointFailures != 0 {
		rr.failures = append(rr.failures, fmt.Sprintf("%d swaps, %d failures, %d checkpoints, %d checkpoint failures after %d retrains",
			st.Swaps, st.Failures, st.Checkpoints, st.CheckpointFailures, n))
	}
	rr.failed = int(st.Failures + st.CheckpointFailures)
	if latest, ok := ms.LatestEpoch(); !ok || latest != uint64(n) {
		rr.failures = append(rr.failures, fmt.Sprintf("store is at epoch %d, the registry at %d", latest, n))
	}
	rr.obs["warm_samples"] = float64(st.WarmSamples)
	rr.obs["cold_samples"] = float64(st.ColdSamples)
	rr.obs["cache_hits"] = float64(st.RetrainCacheHits)
	rr.obs["cache_misses"] = float64(st.RetrainCacheMisses)
	fp := newFingerprinter()
	for _, e := range ms.Entries() {
		fp.u64(e.Epoch)
		fp.u64(e.ModelHash)
	}
	model := reg.Current().Model
	sched, err := model.ScheduleBatch(r.eval)
	if err != nil {
		return rr, err
	}
	rr.cost = sched.Cost(r.in.env, model.Goal)
	rr.queries = len(r.eval.Queries)
	rr.fingerprint = fp.sum()
	return rr, nil
}

// extra holds with the last epoch's registry and store still referenced,
// then checks that the warm retrain is deterministic: twice toward the same
// mix from the same epoch encodes to the same serving content. (Whether it
// also equals the cold retrain is reported by the trace run as
// core.warm.matches_cold, not gated: at this scale it does not — see
// README.md, "Found while sizing".)
func (r *retrainInstance) extra(hold func()) error {
	var scratch []int64
	if _, err := r.round(nil, &scratch); err != nil {
		return err
	}
	hold()
	ctx := context.Background()
	cur := &core.ModelEpoch{Model: r.base, Mix: r.base.TrainingMix()}
	var hashes [2]uint64
	for i := range hashes {
		m, err := core.DriftRetrain(ctx, cur, r.mixes[0])
		if err != nil {
			return err
		}
		if hashes[i], err = contentHash(m); err != nil {
			return err
		}
	}
	if hashes[0] != hashes[1] {
		return fmt.Errorf("%w: two warm retrains toward one mix encode to content hashes %016x and %016x", errIncorrect, hashes[0], hashes[1])
	}
	return nil
}

// contentHash is the hash of what a model serves with (goal, environment,
// mix, tree), as its encoding records it.
func contentHash(m *core.Model) (uint64, error) {
	data, err := core.EncodeModel(m)
	if err != nil {
		return 0, err
	}
	info, err := core.InspectModel(data)
	if err != nil {
		return 0, err
	}
	return info.Hash, nil
}

func (r *retrainInstance) close() error { return os.RemoveAll(r.dir) }

func (r *retrainInstance) layers(t *traced) (map[string]float64, error) {
	ctx := context.Background()
	m := map[string]float64{
		"core.registry.retrain_now_ms":     t.spans[spRetrainNow].medianNS() / 1e6,
		"core.registry.checkpoint_wait_ms": t.spans[spCheckpointWait].medianNS() / 1e6,
	}
	if s := t.obs("warm_samples") + t.obs("cold_samples"); s > 0 {
		m["core.warm.replayed_ratio"] = t.obs("warm_samples") / s
	}
	if l := t.obs("cache_hits") + t.obs("cache_misses"); l > 0 {
		m["core.warm.cache_hit_ratio"] = t.obs("cache_hits") / l
	}

	// The retrain itself, outside the registry: warm along the round's
	// walk (each epoch retrains from the one before), cold toward its
	// first few mixes.
	var warm, cold []float64
	cur := &core.ModelEpoch{Model: r.base, Mix: r.base.TrainingMix()}
	var last *core.Model
	matches := 0
	for i, mix := range r.mixes {
		t0 := time.Now()
		next, err := core.DriftRetrain(ctx, cur, mix)
		if err != nil {
			return nil, err
		}
		warm = append(warm, sinceMS(t0))
		if i < r.in.sz.coldRetrains {
			t0 = time.Now()
			fresh, err := core.ColdDriftRetrain(ctx, cur, mix)
			if err != nil {
				return nil, err
			}
			cold = append(cold, sinceMS(t0))
			warmHash, err := contentHash(next)
			if err != nil {
				return nil, err
			}
			coldHash, err := contentHash(fresh)
			if err != nil {
				return nil, err
			}
			if warmHash == coldHash {
				matches++
			}
		}
		cur = &core.ModelEpoch{Model: next, Epoch: uint64(i + 1), Mix: mix}
		last = next
	}
	m["core.warm.retrain_ms"] = median(warm)
	m["core.warm.cold_retrain_ms"] = median(cold)
	m["core.warm.matches_cold"] = float64(matches) / float64(len(cold))

	swaps := core.NewModelRegistry(r.base)
	m["core.registry.swap_ns"] = bulk(2000, func(int) { swaps.Swap(last, nil) })

	// Persistence and the store, on the last model of the walk.
	const reps = 5
	var encode, decode, commit, latest []float64
	ms, err := store.Open(filepath.Join(r.dir, "probe"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		data, err := core.EncodeModel(last)
		if err != nil {
			return nil, err
		}
		encode = append(encode, sinceMS(t0))
		m["core.persist.model_bytes"] = float64(len(data))
		info, err := core.InspectModel(data)
		if err != nil {
			return nil, err
		}

		t0 = time.Now()
		if _, err := core.DecodeModel(data); err != nil {
			return nil, err
		}
		decode = append(decode, sinceMS(t0))

		t0 = time.Now()
		if err := ms.Commit(data, store.Lineage{Epoch: uint64(i), Parent: uint64(max(i-1, 0)), Reason: "probe", ModelHash: info.Hash}); err != nil {
			return nil, err
		}
		commit = append(commit, sinceMS(t0))

		t0 = time.Now()
		if _, _, err := ms.Latest(); err != nil {
			return nil, err
		}
		latest = append(latest, sinceMS(t0))
	}
	m["core.persist.encode_ms"] = median(encode)
	m["core.persist.decode_ms"] = median(decode)
	m["store.commit_ms"] = median(commit)
	m["store.latest_ms"] = median(latest)
	return m, nil
}
