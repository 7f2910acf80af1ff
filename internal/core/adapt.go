package core

import (
	"context"
	"fmt"
	"time"

	"wisedb/internal/dt"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/search"
	"wisedb/internal/sla"
)

// Adapt re-trains the model for a stricter goal with minimal work (§5):
// instead of sampling and searching from scratch, it revisits the model's
// retained sample workloads on the same scheduling graphs with updated edge
// weights. For monotonic goals a sample whose retained optimal schedule
// costs under the new goal exactly what it cost under the old one keeps
// that schedule without a search (the replay certificate, see
// search.Searcher.Replay); every other sample is re-solved with the
// adaptive-A* heuristic h'(v) = max(h(v), C* − g_old(v)) built from its
// previous search (Lemma 5.1 proves h' admissible when the new goal is
// stricter and the goal is monotonic). Average and Percentile models keep no
// reuse information — a search under those goals could not use it — so
// adaptation re-solves exactly, once per distinct start state, as Train
// does. The model must have been trained with
// KeepTrainingData. The work runs on the same worker pool as Train
// (TrainingConfig.Parallelism) and the result is identical for any worker
// count — and, for monotonic goals, identical to adapting without the
// certificate or the reuse, both of which only skip work.
//
// The returned model itself retains training data, so a chain of
// progressively stricter goals — as built by strategy recommendation — can
// adapt step by step.
func (m *Model) Adapt(goal sla.Goal) (*Model, error) {
	return m.AdaptContext(context.Background(), goal)
}

// AdaptContext is Adapt with cancellation.
func (m *Model) AdaptContext(ctx context.Context, goal sla.Goal) (*Model, error) {
	return m.adapt(ctx, goal, true, nil, true)
}

// adapt implements Adapt. keep controls whether the new model retains its
// own training data (needed to adapt it further; one-shot shifts keep only
// each sample's solved path). near, when non-nil, is a one-shot shift of m
// to a goal no stricter than the new one: its solved paths, closer to the
// new goal's than m's own, are the ones the certificate tries. certify
// false re-solves every sample (tests compare the two).
func (m *Model) adapt(ctx context.Context, goal sla.Goal, keep bool, near *Model, certify bool) (*Model, error) {
	if len(m.samples) == 0 {
		return nil, fmt.Errorf("core: Adapt requires a model trained with KeepTrainingData")
	}
	start := time.Now()
	prob := graph.NewProblem(m.env, goal)
	searcher, err := search.New(prob)
	if err != nil {
		return nil, fmt.Errorf("core: adapt: %w", err)
	}
	// The certificate needs the retained paths to be canonical optima:
	// monotonic goals on both sides, no expansion cap when they were found.
	certify = certify && goal.Monotonic() && m.Goal.Monotonic() && m.TrainingConfig.MaxExpansions == 0
	if near != nil && len(near.shifted) != len(m.samples) {
		near = nil
	}

	// Like Train, adaptation shares a per-call transposition cache across
	// its worker pool: the new goal changes every suffix optimum, so the
	// cache never outlives the call.
	var cache *search.TranspositionCache
	if !m.TrainingConfig.DisableSearchCache && goal.Monotonic() {
		cache = search.NewTranspositionCache()
	}
	// As in Train: closed sets only where a later search can read them, and
	// under a non-monotonic goal one search per distinct start state.
	keepClosed := keep && goal.Monotonic()
	once := newStartOnce(prob)
	solutions := make([]*search.Result, len(m.samples))
	// prior[i] is the looser goal's result sample i replayed; its actions
	// are empty where the sample was solved.
	prior := make([]solvedPath, len(m.samples))
	err = solveSamples(ctx, m.TrainingConfig.Parallelism, len(m.samples), cache,
		func(i int, cache *search.TranspositionCache, rec *search.PendingSuffixes) error {
			s := &m.samples[i]
			if certify {
				from := s.solvedPath
				if near != nil {
					from = near.shifted[i]
				}
				if len(from.actions) > 0 {
					if res, err := searcher.Replay(s.w, from.actions, from.cost, rec); err == nil {
						solutions[i], prior[i] = res, from
						return nil
					}
				}
			}
			res, err := once.solve(s.w, func() (*search.Result, error) {
				return searcher.Solve(s.w, search.Options{Reuse: s.reuse, KeepClosed: keepClosed, Cache: cache, Record: rec})
			})
			if err != nil {
				return fmt.Errorf("core: adapt sample %d: %w", i, err)
			}
			solutions[i] = res
			return nil
		})
	if err != nil {
		return nil, err
	}

	ds := newTrainingSet(m.env, len(m.samples), m.TrainingConfig.SampleSize)
	fs := features.NewState(prob)
	var samples []trainSample
	var shifted []solvedPath
	if !keep && goal.Monotonic() {
		shifted = make([]solvedPath, len(solutions))
	}
	cacheHits, cacheMisses, replayed := 0, 0, 0
	for i, res := range solutions {
		addPathToDataset(ds, fs, res.Path)
		cacheHits += res.CacheHits
		cacheMisses += res.CacheMisses
		// A replayed sample shares the looser goal's immutable path
		// rather than holding a copy of it, and carries that goal's reuse
		// forward: same cost, and still a Lemma 5.1 bound.
		s := &m.samples[i]
		path, reuse := prior[i], s.reuse
		if len(path.actions) > 0 {
			replayed++
		} else {
			path, reuse = solvedPath{res.Cost, res.Actions}, nil
			if res.Closed != nil {
				reuse = search.ReuseFrom(res)
			}
		}
		if keep {
			samples = append(samples, trainSample{w: s.w, solvedPath: path, reuse: reuse, variates: s.variates})
		} else if shifted != nil {
			shifted[i] = path
		}
	}
	tree := dt.Train(ds, m.TrainingConfig.Tree)
	adapted := &Model{
		Goal:              goal,
		Tree:              tree,
		TrainingTime:      time.Since(start),
		TrainingRows:      ds.Len(),
		TrainingConfig:    m.TrainingConfig,
		TrainingCacheHits: cacheHits, TrainingCacheMisses: cacheMisses,
		// Replayed samples (the certificate held) count as warm, re-solved
		// ones as cold; the §5 heuristic reuse is an accelerant of a
		// solve, not a replay.
		WarmSamples: replayed,
		ColdSamples: len(m.samples) - replayed,
		searches:    once.searches(len(m.samples) - replayed),
		env:         m.env,
		prob:        graph.NewProblem(m.env, goal),
		samples:     samples,
		shifted:     shifted,
		// Adaptation re-solves the same sample workloads, so the adapted
		// model serves the same arrival mix.
		trainingMix: m.trainingMix,
	}
	if keep {
		// A kept model may be checkpointed and warm-retrained, both of
		// which read the cache; a one-shot shift is only ever served from.
		adapted.searchCache = cache
	}
	adapted.servingTables() // compile the serving form at adapt time
	return adapted, nil
}

// Tighten adapts the model to its own goal tightened by fraction p (§7.3's
// tightening formula).
func (m *Model) Tighten(p float64) (*Model, error) {
	if p < 0 {
		return nil, fmt.Errorf("core: Tighten(p=%g): adaptive re-training requires a stricter goal; train a fresh model for looser ones", p)
	}
	return m.Adapt(m.Goal.Tighten(p))
}

// ShiftedModel adapts the model to its goal linearly shifted by wait d
// (§6.3's linear-shifting optimization, valid for shiftable goals only:
// scheduling queries that have waited d equals scheduling fresh queries
// under a goal tightened by d).
func (m *Model) ShiftedModel(d time.Duration) (*Model, error) {
	return m.ShiftedModelContext(context.Background(), d)
}

// ShiftedModelContext is ShiftedModel with cancellation: online streams
// thread their run context through model acquisition so a cancelled stream
// does not leave an adaptation running.
func (m *Model) ShiftedModelContext(ctx context.Context, d time.Duration) (*Model, error) {
	return m.shiftedFrom(ctx, d, nil)
}

// shiftedFrom is ShiftedModelContext given near, a model ShiftedModelContext
// built from m for a shorter wait (or nil): the online engine passes the
// nearest smaller entry of its ω-map, whose solved paths the new build
// replays wherever the extra wait did not change a sample's optimum. The
// returned model does not depend on near.
func (m *Model) shiftedFrom(ctx context.Context, d time.Duration, near *Model) (*Model, error) {
	if !m.Goal.Shiftable() {
		return nil, fmt.Errorf("core: goal %s is not linearly shiftable", m.Goal.Name())
	}
	if d == 0 {
		return m, nil
	}
	return m.adapt(ctx, m.Goal.Shift(d), false, near, true)
}
