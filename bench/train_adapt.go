package main

import (
	"fmt"
	"time"

	"wisedb/internal/core"
	"wisedb/internal/dt"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

const (
	spTrain   = "core.advisor.train." // + goal name
	spTighten = "core.advisor.adapt.tighten"
	spShift   = "core.advisor.adapt.shift"
)

// trainGoals returns the four goal families of the paper, in goalNames
// order.
func trainGoals(in *inputs) [4]sla.Goal {
	rate := sla.DefaultPenaltyRate
	return [4]sla.Goal{
		in.goal,
		sla.NewPerQuery(3, in.templates, rate),
		sla.NewAverage(10*time.Minute, in.templates, rate),
		sla.NewPercentile(90, 10*time.Minute, in.templates, rate),
	}
}

// trainInstance is train-adapt: one round trains a model for each goal
// family, then tightens the base Max model by 20 % and shifts the base
// PerQuery model by one minute (the paper's §5 adaptive re-training).
type trainInstance struct {
	in       *inputs
	goals    [4]sla.Goal
	advisors [4]*core.Advisor
	baseMax  *core.Model // Tighten starts here
	basePer  *core.Model // ShiftedModel starts here
	eval     *workload.Workload
	models   [6]*core.Model // the last round's, kept referenced
}

func trainConfig(in *inputs, goal int) core.TrainConfig {
	cfg := in.sz.trainAdapt
	cfg.SampleSize = in.sz.trainGoalSize[goal]
	return cfg
}

func setupTrain(in *inputs) (instance, error) {
	t := &trainInstance{in: in, goals: trainGoals(in), eval: in.evalWorkload(in.sz.evalQueries)}
	for g := range t.goals {
		adv, err := core.NewAdvisor(in.env, trainConfig(in, g))
		if err != nil {
			return nil, err
		}
		t.advisors[g] = adv
	}
	var err error
	if t.baseMax, err = t.advisors[0].Train(t.goals[0]); err != nil {
		return nil, err
	}
	if t.basePer, err = t.advisors[1].Train(t.goals[1]); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *trainInstance) round(tr *tracer, lat *[]int64) (roundResult, error) {
	rr := roundResult{obs: map[string]float64{}}
	op := func(i int, name string, f func() (*core.Model, error)) error {
		t0 := time.Now()
		sp := tr.begin(name, -1, uint32(i))
		m, err := f()
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		*lat = append(*lat, int64(time.Since(t0)))
		t.models[i] = m
		rr.ops++
		return nil
	}
	var err error
	rr.counters, err = measure(func() error {
		for g, adv := range t.advisors {
			if err := op(g, spTrain+goalNames[g], func() (*core.Model, error) { return adv.Train(t.goals[g]) }); err != nil {
				return err
			}
		}
		if err := op(4, spTighten, func() (*core.Model, error) { return t.baseMax.Tighten(0.2) }); err != nil {
			return err
		}
		return op(5, spShift, func() (*core.Model, error) { return t.basePer.ShiftedModel(time.Minute) })
	})
	if err != nil {
		return rr, err
	}
	fp := newFingerprinter()
	for i, m := range t.models {
		fp.str(m.Dump())
		sched, err := m.ScheduleBatch(t.eval)
		if err != nil {
			return rr, fmt.Errorf("model %d: %w", i, err)
		}
		if err := sched.Validate(t.in.env, t.eval); err != nil {
			rr.failures = append(rr.failures, fmt.Sprintf("model %d: invalid schedule: %v", i, err))
		}
		rr.cost += sched.Cost(t.in.env, m.Goal)
		rr.queries += len(t.eval.Queries)
		if i < 4 {
			rr.obs["rows"] += float64(m.TrainingRows)
		}
	}
	rr.fingerprint = fp.sum()
	return rr, nil
}

// extra holds with the last round's six models and the two base models
// still referenced.
func (t *trainInstance) extra(hold func()) error {
	var scratch []int64
	if _, err := t.round(nil, &scratch); err != nil {
		return err
	}
	hold()
	return nil
}

func (t *trainInstance) close() error { return nil }

func (t *trainInstance) layers(tc *traced) (map[string]float64, error) {
	m := map[string]float64{
		"core.advisor.adapt_ms.tighten": tc.spans[spTighten].medianNS() / 1e6,
		"core.advisor.adapt_ms.shift":   tc.spans[spShift].medianNS() / 1e6,
		"core.advisor.training_rows":    tc.obs("rows") / float64(len(tc.rounds)),
	}
	pooled := 0.0
	for _, name := range goalNames {
		ms := tc.spans[spTrain+name].medianNS() / 1e6
		m["core.advisor.train_ms."+name] = ms
		pooled += ms
	}
	// The same four trainings on one worker: how much the pool buys.
	single := 0.0
	for g := range t.goals {
		cfg := trainConfig(t.in, g)
		cfg.Parallelism = 1
		adv, err := core.NewAdvisor(t.in.env, cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := adv.Train(t.goals[g]); err != nil {
			return nil, err
		}
		single += sinceMS(t0)
	}
	m["core.advisor.parallel_speedup"] = single / pooled
	return m, t.probePipeline(tc.tr, m)
}

// probePipeline drives the training pipeline itself, on one goroutine, one
// span per call into each layer: Sampler → graph.NewProblem → Searcher.Solve
// → features → dt.Dataset → dt.Train → Compile for every goal family, then
// Solve with adaptive-A* reuse under the tightened Max goal and Replay of
// the recorded Max paths. It mirrors Advisor.Train (same sample sizes, same
// 32-sample commit barrier of the transposition cache) so its shares are
// Train's shares.
func (t *trainInstance) probePipeline(tr *tracer, m map[string]float64) error {
	const generation = 32
	k := numTemplates
	n := t.in.sz.trainAdapt.NumSamples
	first := len(tr.spans)
	var maxWorkloads []*workload.Workload
	var maxResults []*search.Result
	for g, goal := range t.goals {
		name := goalNames[g]
		prob := graph.NewProblem(t.in.env, goal)
		prob.NoSymmetryBreaking = true
		searcher, err := search.New(prob)
		if err != nil {
			return err
		}
		var cache *search.TranspositionCache
		if goal.Monotonic() {
			cache = search.NewTranspositionCache()
		}
		pending := make([]search.PendingSuffixes, generation)
		results := make([]*search.Result, n)
		workloads := make([]*workload.Workload, n)
		expanded, hits, misses := 0, 0, 0
		for i := 0; i < n; i++ {
			sp := tr.begin("workload.sample", -1, uint32(g))
			workloads[i] = workload.NewSampler(t.in.templates, int64(g)<<32|int64(i)).Uniform(t.in.sz.trainGoalSize[g])
			tr.end(sp)
			opts := search.Options{KeepClosed: true, Cache: cache}
			if cache != nil {
				opts.Record = &pending[i%generation]
			}
			sp = tr.begin("search.solve."+name, -1, uint32(g))
			res, err := searcher.Solve(workloads[i], opts)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("%s sample %d: %w", name, i, err)
			}
			results[i] = res
			expanded += res.Expanded
			hits += res.CacheHits
			misses += res.CacheMisses
			if cache != nil && (i%generation == generation-1 || i == n-1) {
				for j := range pending {
					cache.Commit(&pending[j])
				}
			}
		}
		ds := &dt.Dataset{FeatureNames: features.Names(k), NumLabels: k + len(t.in.env.VMTypes)}
		fs := features.NewState(prob)
		sp := tr.begin("features.dataset."+name, -1, uint32(g))
		for _, res := range results {
			for _, step := range res.Path {
				fs.Reset(step.State)
				ds.Add(fs.AppendTo(make([]float64, 0, features.VectorLen(k)), step.State), step.Action.Label(k))
			}
		}
		tr.end(sp)
		sp = tr.begin("dt.train."+name, -1, uint32(g))
		tree := dt.Train(ds, t.in.sz.trainAdapt.Tree)
		tr.end(sp)
		sp = tr.begin("dt.compile", -1, uint32(g))
		compiled := tree.Compile()
		tr.end(sp)
		if compiled.NumNodes() == 0 {
			return fmt.Errorf("%s: empty compiled tree", name)
		}
		m["search.expanded_per_sample."+name] = float64(expanded) / float64(n)
		if hits+misses > 0 {
			m["search.cache_hit_ratio."+name] = float64(hits) / float64(hits+misses)
		}
		if g == 0 {
			maxWorkloads, maxResults = workloads, results
		}
	}

	tight := graph.NewProblem(t.in.env, t.goals[0].Tighten(0.2))
	tight.NoSymmetryBreaking = true
	adapter, err := search.New(tight)
	if err != nil {
		return err
	}
	prob := graph.NewProblem(t.in.env, t.goals[0])
	prob.NoSymmetryBreaking = true
	replayer, err := search.New(prob)
	if err != nil {
		return err
	}
	for i, res := range maxResults {
		sp := tr.begin("search.adapt_solve", -1, 4)
		_, err := adapter.Solve(maxWorkloads[i], search.Options{Reuse: search.ReuseFrom(res)})
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("adaptive solve %d: %w", i, err)
		}
		sp = tr.begin("search.replay", -1, 5)
		again, err := replayer.Replay(maxWorkloads[i], res.Actions, res.Cost, nil)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replay %d: %w", i, err)
		}
		if len(again.Path) != len(res.Path) {
			return fmt.Errorf("%w: replay %d walked %d steps, the search %d", errIncorrect, i, len(again.Path), len(res.Path))
		}
	}

	sum := summarize(tr.spans[first:])
	m["workload.sample_us"] = sum["workload.sample"].meanNS() / 1e3
	m["dt.compile_us"] = sum["dt.compile"].meanNS() / 1e3
	m["search.adapt_solve_us_per_sample"] = sum["search.adapt_solve"].meanNS() / 1e3
	m["search.replay_us_per_sample"] = sum["search.replay"].meanNS() / 1e3
	for _, name := range goalNames {
		m["search.solve_us_per_sample."+name] = sum["search.solve."+name].meanNS() / 1e3
		m["dt.train_ms."+name] = sum["dt.train."+name].meanNS() / 1e6
	}
	return nil
}
