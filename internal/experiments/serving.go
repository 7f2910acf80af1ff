// Serving-at-scale experiments: the multi-tenant online engine under load.
// These go beyond the paper's single-stream Figs. 18-19 toward the ROADMAP
// north star — a serving engine for many concurrent tenant streams with
// drift-triggered model hot-swapping (§6's adaptive loop, productionized).
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"wisedb/internal/core"
	"wisedb/internal/sla"
	"wisedb/internal/stats"
	"wisedb/internal/workload"
)

// ServeThroughput measures multi-tenant serving throughput: K concurrent
// fixed-seed tenant streams over the engine's shared worker pool, reporting
// total arrival throughput, speedup over the single-stream baseline, the
// p50/p99 per-arrival advisor latency, and the SLA violation rate. Arrival
// gaps exceed query latencies, so every arrival takes the steady-state
// fresh-batch path — this is the serving-machinery ceiling, not a model-
// acquisition benchmark (Fig. 19 covers that).
func (c *Config) ServeThroughput() (*Table, error) {
	s := c.newSetup(c.pick(10, 5), 2)
	goal := s.goal("Max").(sla.MaxLatency)
	base, err := c.model(s.env, goal)
	if err != nil {
		return nil, err
	}
	n := c.pick(300, 60)
	t := &Table{
		Title:  fmt.Sprintf("Serving throughput: K tenant streams x %d arrivals (steady-state path)", n),
		Header: []string{"streams", "arrivals/s", "speedup", "p50 advisor", "p99 advisor", "SLA viol."},
	}
	baseline := 0.0
	for _, k := range []int{1, 4, 16} {
		tenants := fixedGapTenants(s.env.Templates, k, n, c.Seed)
		o := core.NewOnlineScheduler(base, core.DefaultOnlineOptions())
		if _, err := o.RunTenants(context.Background(), tenants, 0); err != nil {
			return nil, err // warm the engine's stream pool and scratch
		}
		start := time.Now()
		results, err := o.RunTenants(context.Background(), tenants, 0)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		perSec := float64(k*n) / elapsed.Seconds()
		if k == 1 {
			baseline = perSec
		}
		var advisor []float64
		violations, completed := 0, 0
		for i, res := range results {
			if err := res.Check(n); err != nil {
				return nil, fmt.Errorf("experiments: serving stream %d: %w", i, err)
			}
			for _, d := range res.PerArrival {
				advisor = append(advisor, float64(d.Nanoseconds()))
			}
			for _, out := range res.Outcomes {
				completed++
				if out.End-out.Arrival > goal.Deadline {
					violations++
				}
			}
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", perSec),
			fmt.Sprintf("%.2fx", perSec/baseline),
			advisorDur(stats.Percentile(advisor, 50)),
			advisorDur(stats.Percentile(advisor, 99)),
			fmt.Sprintf("%.1f%%", 100*float64(violations)/float64(completed)))
	}
	t.Note("fixed-seed streams; zero dropped arrivals checked per run; speedup tracks core count (see EXPERIMENTS.md for the recorded runner)")
	t.Fprint(c.Out)
	return t, nil
}

// advisorDur renders an advisor latency in nanoseconds at 10 ns resolution
// ("430ns", "1.23µs"): a memoized arrival is served well under a
// microsecond, which whole microseconds would print as "0s".
func advisorDur(ns float64) string {
	return time.Duration(ns).Round(10 * time.Nanosecond).String()
}

// fixedGapTenants builds k default-registry tenants of n uniform-mix
// queries arriving 7 minutes apart — longer than any query runs, so every
// arrival takes the steady-state fresh-batch path.
func fixedGapTenants(templates []workload.Template, k, n int, seed int64) []core.Tenant {
	tenants := make([]core.Tenant, k)
	for i := range tenants {
		w := workload.NewSampler(templates, seed+int64(i)*101).Uniform(n)
		tenants[i] = core.Tenant{Workload: w.WithArrivals(workload.FixedDelayArrivals(n, 7*time.Minute))}
	}
	return tenants
}

// ServeScaleOut measures batch replay at scale: K tenant streams replayed
// by RunTenants over a GOMAXPROCS worker pool, swept from 1 to 10k
// concurrent streams. Each row also runs the serial baseline — the same
// tenants at parallelism 1 — so the table shows what the worker pool buys.
// Arrival gaps exceed query latencies (steady-state fresh-batch path); the
// per-stream arrival count shrinks as K grows so every row does the same
// total work.
func (c *Config) ServeScaleOut() (*Table, error) {
	s := c.newSetup(c.pick(10, 5), 2)
	goal := s.goal("Max").(sla.MaxLatency)
	base, err := c.model(s.env, goal)
	if err != nil {
		return nil, err
	}
	counts := []int{1, 16, 64, 256, 1024, 10000}
	if c.Quick {
		counts = []int{1, 16, 64, 256, 1000}
	}
	totalArrivals := c.pick(40000, 8000)
	maxPerStream := c.pick(200, 40)

	procs := runtime.GOMAXPROCS(0)
	t := &Table{
		Title:  fmt.Sprintf("Scale-out: K tenant streams replayed over %d workers", procs),
		Header: []string{"streams", "arrivals", "parallel arr/s", "speedup", "serial arr/s", "parallel/serial"},
	}
	run := func(tenants []core.Tenant, parallelism int) (float64, error) {
		o := core.NewOnlineScheduler(base, core.DefaultOnlineOptions())
		if _, err := o.RunTenants(context.Background(), tenants, parallelism); err != nil {
			return 0, err // warm the stream pool and scratch
		}
		start := time.Now()
		results, err := o.RunTenants(context.Background(), tenants, parallelism)
		if err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		arrivals := 0
		for _, res := range results {
			arrivals += len(res.Outcomes)
		}
		return float64(arrivals) / elapsed.Seconds(), nil
	}
	baseline := 0.0
	for _, k := range counts {
		n := totalArrivals / k
		if n > maxPerStream {
			n = maxPerStream
		}
		if n < 4 {
			n = 4
		}
		tenants := fixedGapTenants(s.env.Templates, k, n, c.Seed)
		parallel, err := run(tenants, 0)
		if err != nil {
			return nil, err
		}
		serial, err := run(tenants, 1)
		if err != nil {
			return nil, err
		}
		if k == 1 {
			baseline = parallel
		}
		t.AddRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%d", k*n),
			fmt.Sprintf("%.0f", parallel),
			fmt.Sprintf("%.2fx", parallel/baseline),
			fmt.Sprintf("%.0f", serial),
			fmt.Sprintf("%.2fx", parallel/serial))
	}
	t.Note("parallel = RunTenants over %d workers; serial = the same tenants at parallelism 1", procs)
	t.Note("fixed-seed tenants; speedup column is vs. this run's own 1-stream row; see EXPERIMENTS.md for the recorded runner")
	t.Fprint(c.Out)
	return t, nil
}

// ServeRecovery injects a template-mix shift into tenant streams and
// reports the drift-recovery trajectory: each stream starts on the uniform
// mix the base model was trained for, then flips to a 90%-skewed mix; the
// stream's detector crosses the EMD threshold, the registry retrains toward
// the observed mix (synchronously here, so the run is reproducible), and
// the adapted model is hot-swapped in. The table splits arrivals into the
// three phases around detection; the "stale epoch" column is the recovery
// lag — arrivals served by a model trained for a mix the arrivals no
// longer follow.
//
// The run happens twice: once with the default warm retrain (cross-epoch
// cache + sample replay, see core.DriftRetrain) and once forced cold
// (core.ColdDriftRetrain), and the closing note compares their retrain
// times — the two runs must agree on every scheduling outcome, since warm
// and cold retrains produce bit-identical models.
//
// Each tenant gets its own engine so every stream's detection is
// observable; on a shared engine the first tenant's swap recovers everyone
// (that path is pinned by TestHotSwapNoDroppedArrivals).
func (c *Config) ServeRecovery() (*Table, error) {
	s := c.newSetup(c.pick(8, 5), 1)
	goal := s.goal("Max").(sla.MaxLatency)
	base, err := c.model(s.env, goal)
	if err != nil {
		return nil, err
	}
	k := len(s.env.Templates)
	streams := c.pick(8, 4)
	uniform, skewed := c.pick(120, 40), c.pick(180, 60)
	gap := 7 * time.Minute

	opts := core.DefaultOnlineOptions()
	opts.Drift = core.DriftOptions{Window: c.pick(48, 24), Threshold: 1.2, Synchronous: true}

	type phase struct {
		name                string
		arrivals, violation int
		stale               int
		latency             time.Duration
		advisor             time.Duration
	}
	type modeResult struct {
		phases               []phase
		detectLag, completed int
		triggers, swaps      int64
		retrainMS            int64
		warmSamples, cold    int64
		hits, misses         int64
		lastMix              []float64
	}
	runMode := func(retrain core.RetrainFunc) (*modeResult, error) {
		r := &modeResult{phases: []phase{
			{name: "uniform mix (before shift)"},
			{name: "shifted mix, pre-detection"},
			{name: "shifted mix, post-swap"},
		}}
		for i := 0; i < streams; i++ {
			seed := c.Seed + int64(i)*131
			head := workload.NewSampler(s.env.Templates, seed).Uniform(uniform)
			tail := workload.NewSampler(s.env.Templates, seed+1).Weighted(skewed, workload.SkewWeights(k, 0.9, k-1))
			queries := append([]workload.Query(nil), head.Queries...)
			for _, q := range tail.Queries {
				q.Tag += uniform
				queries = append(queries, q)
			}
			w := &workload.Workload{Templates: s.env.Templates, Queries: queries}
			w = w.WithArrivals(workload.FixedDelayArrivals(uniform+skewed, gap))

			o := core.NewOnlineScheduler(base, opts)
			if retrain != nil {
				o.Registry().SetRetrain(retrain)
			}
			res, err := o.Run(w)
			if err != nil {
				return nil, err
			}
			if err := res.Check(uniform + skewed); err != nil {
				return nil, fmt.Errorf("experiments: recovery stream %d: %w", i, err)
			}
			if len(res.DriftTriggerArrivals) == 0 {
				return nil, fmt.Errorf("experiments: stream %d never detected the injected shift", i)
			}
			// Arrival gaps are distinct, so a query's tag is its arrival
			// index; the first trigger index splits "shifted, old model"
			// from "shifted, adapted model".
			trigger := res.DriftTriggerArrivals[0]
			r.detectLag += trigger - uniform
			phaseOf := func(idx int) int {
				switch {
				case idx < uniform:
					return 0
				case idx < trigger:
					return 1
				default:
					return 2
				}
			}
			// Recovery lag: phase 1's arrivals follow the shifted mix but
			// are served by the uniform-trained epoch.
			r.phases[1].stale += trigger - uniform
			for _, out := range res.Outcomes {
				r.completed++
				p := phaseOf(out.Tag)
				r.phases[p].arrivals++
				r.phases[p].latency += out.End - out.Arrival
				if out.End-out.Arrival > goal.Deadline {
					r.phases[p].violation++
				}
			}
			for idx, d := range res.PerArrival {
				r.phases[phaseOf(idx)].advisor += d
			}
			st := o.Registry().Stats()
			r.triggers += st.Triggers
			r.swaps += st.Swaps
			r.retrainMS += st.TotalRetrainMS
			r.warmSamples += st.WarmSamples
			r.cold += st.ColdSamples
			r.hits += st.RetrainCacheHits
			r.misses += st.RetrainCacheMisses
			r.lastMix = o.Registry().Current().Mix
		}
		return r, nil
	}

	warm, err := runMode(nil) // default = warm DriftRetrain
	if err != nil {
		return nil, err
	}
	cold, err := runMode(core.ColdDriftRetrain)
	if err != nil {
		return nil, err
	}
	// Warm and cold retrains are pinned bit-identical, so both runs must
	// schedule every arrival the same way.
	for p := range warm.phases {
		if warm.phases[p].arrivals != cold.phases[p].arrivals || warm.phases[p].violation != cold.phases[p].violation {
			return nil, fmt.Errorf("experiments: warm and cold recovery diverged in phase %q", warm.phases[p].name)
		}
	}

	t := &Table{
		Title:  fmt.Sprintf("Shift recovery: %d streams, mix flips to 90%% skew at arrival %d (drift EMD + hot swap)", streams, uniform),
		Header: []string{"phase", "arrivals", "stale epoch", "SLA viol.", "avg latency", "avg advisor"},
	}
	for _, p := range warm.phases {
		if p.arrivals == 0 {
			t.AddRow(p.name, "0", "-", "-", "-", "-")
			continue
		}
		t.AddRow(p.name,
			fmt.Sprintf("%d", p.arrivals),
			fmt.Sprintf("%d", p.stale),
			fmt.Sprintf("%.1f%%", 100*float64(p.violation)/float64(p.arrivals)),
			(p.latency / time.Duration(p.arrivals)).Round(time.Second).String(),
			advisorDur(float64(p.advisor)/float64(p.arrivals)))
	}
	t.Note("detection lag: %.1f arrivals after the shift on average (EMD window %d, threshold %.1f); stale-epoch column counts arrivals served before the swap landed",
		float64(warm.detectLag)/float64(streams), opts.Drift.Window, opts.Drift.Threshold)
	t.Note("%d retrains, %d hot swaps across %d streams; adapted models target %.0f%% mass on the skewed template",
		warm.triggers, warm.swaps, streams, 100*warm.lastMix[k-1])
	speedup := "-"
	if warm.retrainMS > 0 {
		speedup = fmt.Sprintf("%.1fx", float64(cold.retrainMS)/float64(warm.retrainMS))
	}
	hitRate := 0.0
	if warm.hits+warm.misses > 0 {
		hitRate = 100 * float64(warm.hits) / float64(warm.hits+warm.misses)
	}
	t.Note("warm retrain: %dms total (%d/%d samples replayed, %.0f%% cache hits) vs cold %dms — %s faster, identical outcomes in both runs",
		warm.retrainMS, warm.warmSamples, warm.warmSamples+warm.cold, hitRate, cold.retrainMS, speedup)
	t.Note("zero dropped or double-scheduled arrivals across the swap: %d/%d completed exactly once", warm.completed, streams*(uniform+skewed))
	t.Fprint(c.Out)
	return t, nil
}
