package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"wisedb/internal/dt"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// sources is where a build finds a sample's answer before it searches.
// Train, WarmTrain, Adapt and ShiftedModel are the one build loop over
// different sources.
type sources struct {
	// prior holds the samples of the model a build starts from: the epoch
	// a warm retrain replaces, or the model being adapted.
	prior []trainSample
	// draw draws sample i from the build's configuration; otherwise sample
	// i is prior[i]'s own workload.
	draw bool
	// rebin lets a weighted draw rebin prior[i]'s variates instead of
	// reseeding a sampler: the prior drew with the same seed and sample size.
	rebin bool
	// replay offers a stored path to search.Searcher.Replay before any
	// search: near[i] when near is set, else the prior sample's own path
	// when its workload is unchanged.
	replay bool
	// near holds, by sample index, the solved paths of a one-shot shift to a
	// goal no stricter than the build's: closer to its answers than prior's.
	near []solvedPath
	// oneShot keeps only each sample's solved path (Model.shifted, the
	// near of a later, tighter shift) and no transposition cache: the model
	// is served from and never adapted further.
	oneShot bool
}

// answer is one sample's result, held by index until the fold.
type answer struct {
	w        *workload.Workload
	variates []float64
	// prior is the prior sample whose workload w is, if any.
	prior *trainSample
	res   *search.Result
	// replayed is the stored path res replayed; empty when res was solved.
	replayed solvedPath
}

// build generates a model for goal (§4.2): it takes n sample workloads,
// answers each exactly on the worker pool, folds the optimal paths into the
// tree dataset in sample order and fits a tree. Each sample takes the first
// answer its sources have: a stored path that Replay certifies (the walk
// reaches the goal at exactly the stored cost, so it is the canonical
// optimum), else a search, once per distinct start state (startOnce), with
// the transposition cache. The pool commits cache records at
// generation barriers and streams each generation to the fold
// (solveSamplesFold). Because a monotonic search returns the canonical
// optimum whatever accelerates it, the model is the same whichever source
// answered a sample, at any Parallelism.
//
// cache is a warm retrain's cache, derived from the prior epoch's (a layer
// over its frozen tables); nil gives a monotonic goal a cache of its own,
// since suffix optima are goal-specific.
// mix is the arrival mix the model reports it was trained for.
func build(ctx context.Context, env *schedule.Env, goal sla.Goal, cfg TrainConfig, cache *search.TranspositionCache, mix []float64, src sources) (*Model, error) {
	start := time.Now()
	prob := graph.NewProblem(env, goal)
	searcher, err := search.New(prob)
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}
	// The fold takes each sample's rows from its actions, so no answer
	// needs the steps of its path.
	searcher = searcher.WithoutPaths()
	n := cfg.NumSamples
	if !src.draw {
		n = len(src.prior)
	}
	if cache == nil && goal.Monotonic() {
		cache = search.NewTranspositionCache()
	}
	keep := cfg.KeepTrainingData && !src.oneShot
	once := newStartOnce(prob)
	answers := make([]answer, n)
	ts := newTrainingSet(prob)
	var samples []trainSample
	if keep {
		samples = make([]trainSample, 0, n)
	}
	var shifted []solvedPath
	if src.oneShot && goal.Monotonic() {
		shifted = make([]solvedPath, n)
	}
	hits, misses, warm := 0, 0, 0
	samplers := newSamplerList(env.Templates, cfg.Parallelism)
	fold := func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			a := &answers[i]
			ts.addActions(a.w, a.res.Actions)
			hits += a.res.CacheHits
			misses += a.res.CacheMisses
			// A replayed sample shares the stored path rather than holding
			// a copy.
			path := a.replayed
			if len(path.actions) > 0 {
				warm++
			} else {
				path = solvedPath{a.res.Cost, a.res.Actions}
			}
			if keep {
				samples = append(samples, trainSample{w: a.w, solvedPath: path, variates: a.variates})
			} else if shifted != nil {
				shifted[i] = path
			}
			*a = answer{} // folded; free the search result early
		}
		return nil
	}
	err = solveSamplesFold(ctx, cfg.Parallelism, n, cache,
		func(i int, cache *search.TranspositionCache, rec *search.PendingSuffixes) error {
			a := &answers[i]
			a.w, a.variates, a.prior = src.sample(env, cfg, i, samplers)
			var from solvedPath
			if src.replay && a.prior != nil {
				from = a.prior.solvedPath
			}
			if src.near != nil {
				from = src.near[i]
			}
			if len(from.actions) > 0 {
				// Replay validates the walk before recording anything, so a
				// rejected replay — a path that got dearer, a checkpoint
				// priced by older arithmetic — leaves the cache untouched.
				if res, err := searcher.Replay(a.w, from.actions, from.cost, rec); err == nil {
					a.res, a.replayed = res, from
					return nil
				}
			}
			opts := search.Options{Cache: cache, Record: rec}
			res, err := once.solve(a.w, func() (*search.Result, error) { return searcher.Solve(a.w, opts) })
			if err != nil {
				return fmt.Errorf("core: training sample %d: %w", i, err)
			}
			a.res = res
			return nil
		}, fold)
	if err != nil {
		return nil, err
	}

	tree := dt.Train(ts.ds, cfg.Tree)
	m := &Model{
		Goal:              goal,
		Tree:              tree,
		TrainingTime:      time.Since(start),
		TrainingRows:      ts.ds.Len(),
		TrainingConfig:    cfg,
		TrainingCacheHits: hits, TrainingCacheMisses: misses,
		WarmSamples: warm,
		ColdSamples: n - warm,
		searches:    once.searches(n - warm),
		env:         env,
		prob:        graph.NewProblem(env, goal),
		samples:     samples,
		shifted:     shifted,
		trainingMix: mix,
	}
	if !src.oneShot {
		// A kept model may be checkpointed and warm-retrained, both of
		// which read the cache; a one-shot shift is only ever served from.
		m.searchCache = cache
	}
	m.servingTables() // compile the serving form at build time
	return m, nil
}

// sample returns sample i's workload and variates, and the prior sample
// whose workload it is: prior[i] unless there is none or the draw moved. A
// drawn workload comes from a sampler of the list.
func (src *sources) sample(env *schedule.Env, cfg TrainConfig, i int, samplers *samplerList) (*workload.Workload, []float64, *trainSample) {
	var p *trainSample
	if i < len(src.prior) {
		p = &src.prior[i]
	}
	if !src.draw {
		return p.w, p.variates, p
	}
	var w *workload.Workload
	var variates []float64
	switch {
	case cfg.SampleWeights != nil && src.rebin && p != nil && len(p.variates) == cfg.SampleSize:
		// The prior's variates are this draw's: rebin them under the new
		// mix instead of reconstructing (and expensively reseeding) a sampler.
		variates = p.variates
		w = workload.WeightedFromVariates(env.Templates, variates, cfg.SampleWeights)
	case cfg.SampleWeights != nil:
		sampler := samplers.get(deriveSeed(cfg.Seed, i))
		w, variates = sampler.WeightedVariates(cfg.SampleSize, cfg.SampleWeights)
		samplers.put(sampler)
	default:
		sampler := samplers.get(deriveSeed(cfg.Seed, i))
		w = sampler.Uniform(cfg.SampleSize)
		samplers.put(sampler)
	}
	if p != nil && !sameQueries(w, p.w) {
		p = nil
	}
	return w, variates, p
}

// samplerList is a build's free list of workload samplers, reseeded for each
// drawn sample: a fresh sampler allocates its 4.9 kB random source. The
// list belongs to the build — a sync.Pool would outlive it — and holds at
// most one sampler per worker.
type samplerList struct {
	templates []workload.Template
	free      chan *workload.Sampler
}

// newSamplerList returns an empty list for a build on parallelism workers
// (0 = GOMAXPROCS, as the worker pool counts them).
func newSamplerList(templates []workload.Template, parallelism int) *samplerList {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &samplerList{templates: templates, free: make(chan *workload.Sampler, parallelism)}
}

// get returns a sampler on seed's stream: a free one reseeded, or a new one.
func (s *samplerList) get(seed int64) *workload.Sampler {
	select {
	case sp := <-s.free:
		sp.Reseed(seed)
		return sp
	default:
		return workload.NewSampler(s.templates, seed)
	}
}

// put returns a sampler get handed out to the list.
func (s *samplerList) put(sp *workload.Sampler) {
	select {
	case s.free <- sp:
	default:
	}
}

// sameQueries reports whether two sample workloads drew exactly the same
// query sequence (template and tag per position) — the condition for
// replaying the prior epoch's search of the sample.
func sameQueries(a, b *workload.Workload) bool {
	if b == nil || len(a.Queries) != len(b.Queries) {
		return false
	}
	for i, q := range a.Queries {
		if b.Queries[i] != q {
			return false
		}
	}
	return true
}
