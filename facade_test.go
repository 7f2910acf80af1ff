package wisedb_test

import (
	"testing"
	"time"

	"wisedb"
)

// The public facade must support the full documented quickstart flow.
func TestFacadeQuickstart(t *testing.T) {
	templates := wisedb.DefaultTemplates(4)
	env := wisedb.NewEnv(templates, wisedb.DefaultVMTypes(1))
	goal := wisedb.NewMaxLatency(15*time.Minute, templates, wisedb.DefaultPenaltyRate)

	cfg := wisedb.DefaultTrainConfig()
	cfg.NumSamples = 60
	cfg.SampleSize = 6
	advisor, err := wisedb.NewAdvisor(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := advisor.Train(goal)
	if err != nil {
		t.Fatal(err)
	}

	batch := wisedb.NewSampler(templates, 42).Uniform(50)
	sched, err := model.ScheduleBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(env, batch); err != nil {
		t.Fatal(err)
	}
	if cost := sched.Cost(env, goal); cost <= 0 {
		t.Fatalf("cost must be positive, got %f", cost)
	}

	// Adaptive modeling and online scheduling through the facade.
	stricter, err := model.Tighten(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if stricter.Goal.(wisedb.MaxLatency).Deadline >= goal.Deadline {
		t.Fatal("tightened deadline must shrink")
	}
	stream := batch.WithArrivals(make([]time.Duration, 50))
	res, err := wisedb.NewOnlineScheduler(model, wisedb.DefaultOnlineOptions()).Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(50); err != nil {
		t.Fatal(err)
	}
}

// All four goal families must be constructible and evaluable through the
// facade.
func TestFacadeGoals(t *testing.T) {
	templates := wisedb.DefaultTemplates(3)
	goals := []wisedb.Goal{
		wisedb.NewMaxLatency(10*time.Minute, templates, 1),
		wisedb.NewPerQuery(3, templates, 1),
		wisedb.NewAverage(10*time.Minute, templates, 1),
		wisedb.NewPercentile(90, 10*time.Minute, templates, 1),
	}
	perf := []wisedb.QueryPerf{{TemplateID: 0, Latency: 5 * time.Minute}}
	for _, g := range goals {
		if p := g.Penalty(perf); p != 0 {
			t.Fatalf("%s: on-time query should have no penalty, got %f", g.Name(), p)
		}
	}
}
