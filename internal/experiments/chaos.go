// Chaos experiment: the serving engine under deterministic fault injection.
// This is the robustness counterpart of ServeRecovery — instead of asking
// how fast the engine recovers from drift, it asks what the engine costs
// when the infrastructure itself misbehaves: VMs die mid-stream, retrains
// fail until the circuit breaker trips, and the epoch model can become
// unusable outright, forcing heuristic fallback and load shedding.
package experiments

import (
	"context"
	"fmt"
	"time"

	"wisedb/internal/chaos"
	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/sla"
	"wisedb/internal/stats"
	"wisedb/internal/workload"
)

// Chaos runs three scenarios over the same shifted tenant streams and
// reports the serving cost of each failure domain:
//
//   - baseline: no injection — the healthy engine, drift retrain succeeds.
//   - vm+retrain faults: every tenant's simulator kills VMs mid-stream and
//     the first retrains fail, tripping the circuit breaker; the engine
//     keeps serving the old epoch, re-admits killed work, and recovers
//     through the breaker's half-open probe.
//   - unusable model: the epoch model cannot schedule waited batches at all
//     (no retained training data), so every backlogged arrival degrades to
//     first-fit heuristic scheduling and arrivals above the backlog bound
//     are shed admission-control style.
func (c *Config) Chaos() (*Table, error) {
	s := c.newSetup(c.pick(8, 5), 1)
	goal := s.goal("Max").(sla.MaxLatency)
	base, err := c.model(s.env, goal)
	if err != nil {
		return nil, err
	}
	// The unusable-model scenario needs a base that fails the shift path:
	// trained without retained training data, Adapt has nothing to re-train
	// from and model acquisition errors on every waited batch.
	degCfg := c.trainConfig()
	degCfg.KeepTrainingData = false
	degAdv, err := core.NewAdvisor(s.env, degCfg)
	if err != nil {
		return nil, err
	}
	degBase, err := degAdv.Train(goal)
	if err != nil {
		return nil, err
	}

	k := len(s.env.Templates)
	streams := c.pick(8, 4)
	uniform, skewed := c.pick(96, 48), c.pick(160, 80)
	n := uniform + skewed
	// 45s gaps (well under query latencies) keep real backlogs on the
	// rented VMs, so a killed VM has work to re-admit and waited batches
	// exercise the shift path.
	gap := 45 * time.Second
	spec := chaos.Spec{
		Seed: c.Seed + 977,
		VM: cloud.FaultSpec{
			VMFailureRate: 0.4,
			VMMinLifetime: time.Minute,
			VMMaxLifetime: time.Duration(n) * gap,
		},
		RetrainFailures: 2,
	}

	makeTenants := func(inject bool) []core.Tenant {
		tenants := make([]core.Tenant, streams)
		for i := range tenants {
			seed := c.Seed + int64(i)*131
			head := workload.NewSampler(s.env.Templates, seed).Uniform(uniform)
			tail := workload.NewSampler(s.env.Templates, seed+1).Weighted(skewed, workload.SkewWeights(k, 0.9, k-1))
			queries := append([]workload.Query(nil), head.Queries...)
			for _, q := range tail.Queries {
				q.Tag += uniform
				queries = append(queries, q)
			}
			w := &workload.Workload{Templates: s.env.Templates, Queries: queries}
			tenants[i] = core.Tenant{Workload: w.WithArrivals(workload.FixedDelayArrivals(n, gap))}
			if inject {
				tenants[i].Faults = spec.VMPlan(i)
			}
		}
		return tenants
	}

	type row struct {
		completed, shed, readmitted int
		degradedPct, violPct        float64
		p99                         time.Duration
		breaker                     string
	}
	// run serves the tenant streams of one scenario. Streams share one
	// registry, so where a drift retrain can swap epochs they run one after
	// another (parallelism 1): run side by side, the synchronous swap would
	// reach the other streams at points wall-clock timing picks, and the
	// row would change from run to run at a fixed seed.
	run := func(model *core.Model, opts core.OnlineOptions, inject, injectRetrain bool, parallelism int) (row, error) {
		o := core.NewOnlineScheduler(model, opts)
		if injectRetrain {
			o.Registry().SetRetrain(spec.Retrain(core.DriftRetrain))
		}
		results, err := o.RunTenants(context.Background(), makeTenants(inject), parallelism)
		if err != nil {
			return row{}, err
		}
		var r row
		var latencies []float64
		violations, degradedArrivals, arrivalEvents := 0, 0, 0
		for i, res := range results {
			if err := res.Check(n); err != nil {
				return row{}, fmt.Errorf("experiments: chaos stream %d: %w", i, err)
			}
			for _, out := range res.Outcomes {
				r.completed++
				lat := out.End - out.Arrival
				latencies = append(latencies, float64(lat))
				if lat > goal.Deadline {
					violations++
				}
			}
			r.shed += res.ShedArrivals
			r.readmitted += res.FaultReadmissions
			degradedArrivals += res.DegradedArrivals
			arrivalEvents += len(res.PerArrival)
		}
		r.violPct = 100 * float64(violations) / float64(r.completed)
		r.degradedPct = 100 * float64(degradedArrivals) / float64(arrivalEvents)
		r.p99 = time.Duration(stats.Percentile(latencies, 99)).Round(time.Second)
		rb := o.Registry().Stats().Robustness
		r.breaker = fmt.Sprintf("%s (%d/%d)", rb.Breaker, rb.BreakerOpens, rb.BreakerCloses)
		return r, nil
	}

	driftOpts := core.DriftOptions{Window: c.pick(48, 24), Threshold: 1.2, Synchronous: true}
	baseOpts := core.DefaultOnlineOptions()
	baseOpts.Drift = driftOpts

	faultOpts := baseOpts
	faultOpts.Retry = core.RetryPolicy{BackoffBase: -1, BreakerThreshold: 2, BreakerCooldown: 2}
	faultOpts.Degrade = true

	degOpts := core.DefaultOnlineOptions()
	degOpts.Degrade = true
	degOpts.MaxBacklog = 6

	baseline, err := run(base, baseOpts, false, false, 1)
	if err != nil {
		return nil, err
	}
	injected, err := run(base, faultOpts, true, true, 1)
	if err != nil {
		return nil, err
	}
	// No drift detector here: the epoch never changes, so the streams may
	// run side by side.
	degraded, err := run(degBase, degOpts, true, false, 0)
	if err != nil {
		return nil, err
	}

	total := streams * n
	t := &Table{
		Title:  fmt.Sprintf("Chaos: %d streams x %d arrivals under fault injection (seed %d)", streams, n, spec.Seed),
		Header: []string{"scenario", "completed", "shed", "SLA viol.", "p99 latency", "degraded", "readmitted", "breaker (open/close)"},
	}
	addRow := func(name string, r row) {
		t.AddRow(name,
			fmt.Sprintf("%d/%d", r.completed, total),
			fmt.Sprintf("%.1f%%", 100*float64(r.shed)/float64(total)),
			fmt.Sprintf("%.1f%%", r.violPct),
			r.p99.String(),
			fmt.Sprintf("%.1f%%", r.degradedPct),
			fmt.Sprintf("%d", r.readmitted),
			r.breaker)
	}
	addRow("baseline (no injection)", baseline)
	addRow("vm+retrain faults", injected)
	addRow("unusable model (degraded)", degraded)
	t.Note("breaker timeline in the faulted run: %d injected retrain failures trip it open, %d cooldown triggers are rejected, the half-open probe retrains successfully and closes it",
		spec.RetrainFailures, faultOpts.Retry.BreakerCooldown)
	t.Note("every non-shed arrival completes exactly once in all scenarios (checked per stream); VM fault plans are per-tenant seeded and streams that can swap epochs run one after another, so reruns are bit-identical")
	t.Note("unusable-model row: the base retains no training data, so waited batches fall back to first-fit heuristic scheduling; arrivals above a %d-query backlog are shed",
		degOpts.MaxBacklog)
	t.Fprint(c.Out)
	return t, nil
}
