// Scenario-harness experiment: the catalog of trace-driven arrival
// scenarios (Poisson, heavy-tailed, diurnal, flash-crowd, priority tiers,
// spot pricing, correlated mix shifts) replayed through the serving engine.
// Each row is one committed seeded scenario — the same specs the scenario
// package's bit-determinism tests pin — so the table doubles as the
// EXPERIMENTS.md record of how the engine behaves outside the uniform
// fixed-gap regime every earlier experiment measured.
package experiments

import (
	"context"
	"fmt"
	"time"

	"wisedb/internal/core"
	"wisedb/internal/scenario"
	"wisedb/internal/sla"
	"wisedb/internal/stats"
)

// Scenarios replays the scenario catalog: K tenant streams per scenario
// (gold/bronze tiers where the scenario calls for them, spot prices where
// armed), reporting arrival throughput, p99 advisor latency, SLA violation
// rate, shed arrivals, and total cost per scenario.
func (c *Config) Scenarios() (*Table, error) {
	s := c.newSetup(5, 2)
	tiers := map[string]time.Duration{
		"":       15 * time.Minute,
		"gold":   10 * time.Minute,
		"bronze": 25 * time.Minute,
	}
	models := map[string]*core.Model{}
	goals := map[string]sla.MaxLatency{}
	for tier, deadline := range tiers {
		goal := sla.NewMaxLatency(deadline, s.env.Templates, sla.DefaultPenaltyRate)
		m, err := c.model(s.env, goal)
		if err != nil {
			return nil, err
		}
		models[tier], goals[tier] = m, goal
	}

	n := c.pick(200, 48)
	gap := 5 * time.Minute
	t := &Table{
		Title:  fmt.Sprintf("Scenario harness: seeded arrival/mix/price scenarios x %d arrivals per tenant", n),
		Header: []string{"scenario", "tenants", "arrivals/s", "p99 advisor", "SLA viol.", "sheds", "cost"},
	}
	for _, spec := range scenario.Catalog(c.Seed+40, n, gap) {
		opts := core.DefaultOnlineOptions()
		opts.Prices = spec.Prices
		o := core.NewOnlineScheduler(models[""], opts)
		for _, tier := range []string{"gold", "bronze"} {
			if _, err := o.AddRegistry(tier, models[tier]); err != nil {
				return nil, err
			}
		}
		tenants := spec.Generate(s.env.Templates)
		start := time.Now()
		results, err := o.RunTenants(context.Background(), tenants, 0)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		elapsed := time.Since(start)

		var advisor []float64
		arrivals, violations, completed, sheds := 0, 0, 0, 0
		cost := 0.0
		for i, res := range results {
			if err := res.Check(spec.Tenants[i].Queries); err != nil {
				return nil, fmt.Errorf("scenario %s tenant %s: %w", spec.Name, spec.Tenants[i].Name, err)
			}
			deadline := tiers[spec.Tenants[i].Registry]
			arrivals += len(res.PerArrival)
			sheds += res.ShedArrivals
			cost += res.Cost
			for _, d := range res.PerArrival {
				advisor = append(advisor, float64(d.Nanoseconds()))
			}
			for _, out := range res.Outcomes {
				completed++
				if out.End-out.Arrival > deadline {
					violations++
				}
			}
		}
		t.AddRow(spec.Name,
			fmt.Sprintf("%d", len(tenants)),
			fmt.Sprintf("%.0f", float64(completed+sheds)/elapsed.Seconds()),
			advisorDur(stats.Percentile(advisor, 99)),
			fmt.Sprintf("%.1f%%", 100*float64(violations)/float64(completed)),
			fmt.Sprintf("%d", sheds),
			cents(cost))
	}
	t.Note("committed seeded specs (scenario.Catalog); every row is bit-deterministic at any parallelism and replayed under -race in CI; gold=10m, bronze=25m, default=15m SLAs; spot row serves under a seeded price walk in [0.5x, 2.0x]")
	t.Fprint(c.Out)
	return t, nil
}
