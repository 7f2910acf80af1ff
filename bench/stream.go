package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/heuristics"
	"wisedb/internal/search"
	"wisedb/internal/workload"
)

const (
	spStreamOpen   = "core.stream.open"
	spStreamSubmit = "core.stream.submit"
	spStreamFinish = "core.stream.finish"

	// streamGap is the virtual time between arrivals of stream-backlog and
	// stream-degraded: short enough that two thirds of arrivals find
	// queries still waiting.
	streamGap = 30 * time.Second
)

// serveOptions are the engine options `wisedb serve` builds.
func serveOptions() core.OnlineOptions {
	opts := core.DefaultOnlineOptions()
	opts.Drift = core.DriftOptions{Window: 48}
	return opts
}

// streamInstance is stream-backlog (degraded false) or stream-degraded.
type streamInstance struct {
	in       *inputs
	degraded bool
	model    *core.Model
	eng      *core.OnlineScheduler
	cycles   []cycle // one per stream of a round
	// fillMS and fillBuilds describe the replay that ends set-up.
	fillMS     float64
	fillBuilds int64
}

func setupStream(in *inputs, degraded bool) (instance, error) {
	cfg := in.sz.serving
	opts := serveOptions()
	passes := in.sz.backlogPasses
	if degraded {
		// Without training data the model cannot be shifted: the first
		// batch with a waited query fails model acquisition and the stream
		// stays on the first-fit heuristic.
		cfg.KeepTrainingData = false
		opts.Degrade = true
		opts.MaxBacklog = 0
		passes = in.sz.degradedPasses
	}
	adv, err := core.NewAdvisor(in.env, cfg)
	if err != nil {
		return nil, err
	}
	model, err := adv.Train(in.goal)
	if err != nil {
		return nil, err
	}
	s := &streamInstance{
		in:       in,
		degraded: degraded,
		model:    model,
		eng:      core.NewOnlineScheduler(model, opts),
		cycles:   in.cycles(passes, !degraded),
	}
	// One untimed replay ends set-up. On the model path it is one pass —
	// every template cycle at every rotation — after which the ω-map is
	// full and no timed arrival builds a model: the cold-engine cost an
	// operator really pays. The degraded path has nothing to fill (every
	// stream's one build attempt fails) and replays one stream.
	fill := s.cycles[:1]
	if !degraded {
		fill = s.cycles[:len(s.cycles)/passes]
	}
	t0 := time.Now()
	for _, c := range fill {
		if _, err := s.replay(nil, nil, c, 0, nil); err != nil {
			return nil, err
		}
	}
	s.fillMS = sinceMS(t0)
	s.fillBuilds = s.eng.CacheStats()
	return s, nil
}

// replay drives one stream of streamArrivals arrivals. atFullest, when not
// nil, runs after the last Submit and before Finish.
func (s *streamInstance) replay(tr *tracer, lat *[]int64, c cycle, op uint32, atFullest func()) (*core.OnlineResult, error) {
	ctx := context.Background()
	n := s.in.sz.streamArrivals
	clock := &core.SimClock{}
	sp := tr.begin(spStreamOpen, -1, op)
	st := s.eng.NewStream(clock)
	st.Reserve(n)
	tr.end(sp)
	prev := time.Now()
	for i := 0; i < n; i++ {
		clock.Advance(time.Duration(i) * streamGap)
		sp := tr.begin(spStreamSubmit, -1, op)
		err := st.Submit(ctx, workload.Query{TemplateID: c[i%numTemplates], Tag: i})
		tr.end(sp)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("arrival %d: %w", i, err)
		}
		if lat != nil && i%numTemplates == numTemplates-1 {
			// A Submit that finds nothing waiting takes ≈ 0.6 µs, too
			// short to time alone (a clock read is ≈ 60 ns): the five
			// Submits of one template cycle are timed as one interval,
			// from the end of the previous one, and each is given a fifth.
			now := time.Now()
			each := int64(now.Sub(prev)) / numTemplates
			for j := 0; j < numTemplates; j++ {
				*lat = append(*lat, each)
			}
			prev = now
		}
	}
	if atFullest != nil {
		atFullest()
	}
	sp = tr.begin(spStreamFinish, -1, op)
	res := st.Finish()
	tr.end(sp)
	st.Close()
	return res, nil
}

func (s *streamInstance) round(tr *tracer, lat *[]int64) (roundResult, error) {
	n := s.in.sz.streamArrivals
	rr := roundResult{obs: map[string]float64{}}
	fp := newFingerprinter()
	ck := &checker{}
	var err error
	rr.counters, err = measure(func() error {
		for i, c := range s.cycles {
			res, err := s.replay(tr, lat, c, uint32(i), nil)
			if err != nil {
				return err
			}
			rr.ops += n
			rr.failed += res.ShedArrivals
			rr.cost += res.Cost
			rr.queries += n
			fp.f64(res.Cost)
			fp.u64(uint64(res.VMsRented))
			fp.u64(uint64(len(res.Outcomes)))
			if len(res.Outcomes)+res.ShedArrivals != n {
				ck.failf("stream %d: %d completed + %d shed of %d submitted", i, len(res.Outcomes), res.ShedArrivals, n)
			}
			if res.DriftTriggers != 0 {
				ck.failf("stream %d: %d drift triggers on a stationary mix", i, res.DriftTriggers)
			}
			if s.degraded && res.DegradedArrivals == 0 {
				ck.failf("stream %d never degraded", i)
			}
			if !s.degraded && res.DegradedArrivals != 0 {
				ck.failf("stream %d: %d degraded arrivals on the model path", i, res.DegradedArrivals)
			}
			rr.obs["streams"]++
			rr.obs["advisor_ns"] += float64(res.SchedulingTime.Nanoseconds())
			rr.obs["cache_hits"] += float64(res.CacheHits)
			rr.obs["adaptations"] += float64(res.Adaptations)
			rr.obs["vms"] += float64(res.VMsRented)
			rr.obs["degraded"] += float64(res.DegradedArrivals)
			rr.obs["shed"] += float64(res.ShedArrivals)
			rr.obs["drift"] += float64(res.DriftTriggers)
		}
		return nil
	})
	if err != nil {
		return rr, err
	}
	if builds := s.eng.CacheStats(); !s.degraded && builds != s.fillBuilds {
		ck.failf("%d ω-map builds during a round (set-up left %d)", builds-s.fillBuilds, s.fillBuilds)
	}
	rr.fingerprint = fp.sum()
	rr.failures = ck.failures
	return rr, nil
}

func (s *streamInstance) extra(hold func()) error {
	_, err := s.replay(nil, nil, s.cycles[0], 0, hold)
	return err
}

func (s *streamInstance) close() error { return nil }

func (s *streamInstance) layers(t *traced) (map[string]float64, error) {
	arrivals := float64(s.in.sz.streamArrivals) * t.obs("streams")
	streams := t.obs("streams")
	submit := t.spans[spStreamSubmit].meanNS()
	advisor := t.obs("advisor_ns") / arrivals
	m := map[string]float64{
		"core.stream.submit_ns":             submit,
		"core.stream.advisor_ns":            advisor,
		"core.stream.place_ns":              submit - advisor,
		"core.stream.open_ns":               t.spans[spStreamOpen].meanNS(),
		"core.stream.finish_ns_per_arrival": float64(t.spans[spStreamFinish].total) / arrivals,
		"core.stream.omega_fill_ms":         s.fillMS,
		"core.stream.omega_builds":          float64(s.fillBuilds),
		"core.stream.vms_rented":            t.obs("vms") / streams,
		"core.stream.degraded_arrivals":     t.obs("degraded") / streams,
		"core.stream.shed_arrivals":         t.obs("shed") / streams,
		"core.stream.drift_triggers":        t.obs("drift"),
	}
	if lookups := t.obs("cache_hits") + t.obs("adaptations"); lookups > 0 {
		m["core.stream.omega_hit_ratio"] = t.obs("cache_hits") / lookups
	}
	probeSim(m)
	if s.degraded {
		if err := s.probeFirstFit(m); err != nil {
			return nil, err
		}
		return m, nil
	}
	if err := s.probeBatch(m); err != nil {
		return nil, err
	}
	return m, s.probeDecision(m)
}

// bulk times n calls of f as one interval and returns nanoseconds per call:
// the way to time anything shorter than a few clock reads.
func bulk(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeBatch times Model.ScheduleBatch on seeded batches of 10, 100 and
// 1000 queries (the backlog stream lives in the n=10 regime).
func (s *streamInstance) probeBatch(m map[string]float64) error {
	for _, c := range []struct{ n, calls int }{{10, 4000}, {100, 600}, {1000, 60}} {
		w := s.in.evalWorkload(c.n)
		if _, err := s.model.ScheduleBatch(w); err != nil {
			return err
		}
		var failed error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		perCall := bulk(c.calls, func(int) {
			if _, err := s.model.ScheduleBatch(w); err != nil {
				failed = err
			}
		})
		runtime.ReadMemStats(&after)
		if failed != nil {
			return failed
		}
		m[fmt.Sprintf("core.batch.schedule_ns_per_query.n%d", c.n)] = perCall / float64(c.n)
		if c.n == 100 {
			m["core.batch.allocs_per_call.n100"] = float64(after.Mallocs-before.Mallocs) / float64(c.calls)
		}
	}
	return nil
}

// probeDecision times the two steps ScheduleBatch repeats per decision —
// incremental feature extraction and the compiled-tree walk — over the
// decision path of one exactly solved 12-query sample.
func (s *streamInstance) probeDecision(m map[string]float64) error {
	prob := graph.NewProblem(s.in.env, s.in.goal)
	prob.NoSymmetryBreaking = true
	searcher, err := search.New(prob)
	if err != nil {
		return err
	}
	res, err := searcher.Solve(s.in.evalWorkload(12), search.Options{})
	if err != nil {
		return err
	}
	fs := features.NewState(prob)
	tree := s.model.CompiledTree()
	buf := make([]float64, 0, features.VectorLen(numTemplates))
	vectors := make([][]float64, len(res.Path))
	const passes = 20000
	perStep := bulk(passes, func(int) {
		fs.Reset(res.Path[0].State)
		for _, step := range res.Path {
			buf = fs.AppendTo(buf[:0], step.State)
			fs.Apply(step.Action)
		}
	})
	for i, step := range res.Path {
		fs.Reset(step.State)
		vectors[i] = fs.AppendTo(nil, step.State)
	}
	sink := 0
	perPredict := bulk(passes, func(int) {
		for _, x := range vectors {
			sink += tree.Predict(x)
		}
	})
	if sink < 0 {
		return fmt.Errorf("negative label sum %d", sink)
	}
	m["features.step_ns"] = perStep / float64(len(res.Path))
	m["dt.predict_ns"] = perPredict / float64(len(res.Path))
	m["dt.tree_nodes"] = float64(tree.NumNodes())
	return nil
}

// probeSim times the simulator calls Stream.place and the revocation sweep
// make, on a simulation shaped like the stream's: 14 rented VMs, one event
// every 30 s that revokes every VM's unstarted queue and enqueues what was
// revoked plus three new one-minute queries. Each timed segment is a few hundred nanoseconds, so the cost of
// one clock read (measured here) is taken off each.
func probeSim(m map[string]float64) {
	const vms, events, perEvent = 14, 20000, 3
	clockNS := bulk(1<<16, func(int) { _ = time.Now() })
	types := cloud.DefaultVMTypes(2)
	sim := cloud.NewSim()
	for i := 0; i < vms; i++ {
		sim.Rent(types[i%len(types)], 0)
	}
	buf := make([]int, 0, 64)
	var revokeNS, enqueueNS int64
	tag, enqueues := 0, 0
	for e := 0; e < events; e++ {
		t := time.Duration(e+1) * streamGap
		t0 := time.Now()
		buf = buf[:0]
		for _, vm := range sim.VMs() {
			buf = vm.RevokeUnstartedInto(t, buf)
		}
		t1 := time.Now()
		for i := 0; i < perEvent; i++ {
			buf = append(buf, tag)
			tag++
		}
		for i, q := range buf {
			sim.VMs()[(e+i)%vms].Enqueue(q, q%numTemplates, t, time.Minute)
		}
		t2 := time.Now()
		revokeNS += int64(t1.Sub(t0))
		enqueueNS += int64(t2.Sub(t1))
		enqueues += len(buf)
	}
	t0 := time.Now()
	runs := sim.Finish()
	finish := time.Since(t0)
	m["cloud.sim_revoke_ns"] = max(0, (float64(revokeNS)/events-clockNS)/vms)
	// A query is enqueued once as new and again each time it is revoked
	// before it started.
	m["cloud.sim_enqueue_ns"] = max(0, float64(enqueueNS)-clockNS*events) / float64(enqueues)
	m["cloud.sim_finish_ns_per_run"] = float64(finish.Nanoseconds()) / float64(len(runs))
}

// probeFirstFit times heuristics.FirstFit at the mean batch size the
// degraded stream reaches, reconstructed from one stream's outcomes: the
// batch of the event at time t is every query that had arrived by t and had
// not started before t.
func (s *streamInstance) probeFirstFit(m map[string]float64) error {
	res, err := s.replay(nil, nil, s.cycles[0], 0, nil)
	if err != nil {
		return err
	}
	total := 0
	for i := 0; i < s.in.sz.streamArrivals; i++ {
		t := time.Duration(i) * streamGap
		for _, o := range res.Outcomes {
			if o.Arrival <= t && o.Start >= t {
				total++
			}
		}
	}
	batch := max(1, (total+s.in.sz.streamArrivals/2)/s.in.sz.streamArrivals)
	w := s.in.evalWorkload(batch)
	order := heuristics.OrderFor(s.in.goal)
	perCall := bulk(20000, func(int) { heuristics.FirstFit(w, s.in.env, s.in.goal, 0, order) })
	m["heuristics.firstfit_ns_per_query"] = perCall / float64(batch)
	return nil
}
