package core

import (
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// The serving path must stay allocation-light: at most one allocation per
// query amortized in steady state (the issue's acceptance bound; the
// remaining allocations are the returned Schedule itself). Guards against
// per-step feature vectors, state copies, or retag maps creeping back in.
func TestScheduleBatchAllocationsBounded(t *testing.T) {
	adv := smallAdvisor(t, 5, 2)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	w := workload.NewSampler(adv.Env().Templates, 23).Uniform(40)
	// Warm the scratch pool, then measure steady state.
	for i := 0; i < 2; i++ {
		if _, err := m.ScheduleBatch(w); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.ScheduleBatch(w); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs for %d queries (%.2f per query)", allocs, len(w.Queries), allocs/float64(len(w.Queries)))
	if allocs > float64(len(w.Queries)) {
		t.Errorf("%.0f allocations for a %d-query batch; want <= 1 per query (serving scratch regression?)", allocs, len(w.Queries))
	}
}

// A trained model must expose its compiled tree, and the compiled form must
// agree with the node tree on real serving feature vectors.
func TestModelCompilesAtTrainTime(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	compiled := m.CompiledTree()
	if compiled == nil {
		t.Fatal("trained model has no compiled tree")
	}
	if got, want := compiled.NumNodes(), m.Tree.NumNodes(); got != want {
		t.Fatalf("compiled tree has %d nodes, source tree %d", got, want)
	}
	adapted, err := m.Tighten(0.2)
	if err != nil {
		t.Fatal(err)
	}
	if adapted.CompiledTree() == nil {
		t.Fatal("adapted model has no compiled tree")
	}
}

// SchedulingTime / PerArrival report advisor overhead only (§6.3, the
// Fig. 19 metric): simulator placement must run outside the timed window.
// The pin: by the time place starts for arrival i, PerArrival must already
// hold arrival i's measurement.
func TestOnlineTimingExcludesPlacement(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOnlineScheduler(m, DefaultOnlineOptions())
	placeCalls := 0
	o.placeStarted = func(res *OnlineResult) {
		placeCalls++
		if got := len(res.PerArrival); got != placeCalls {
			t.Errorf("place for arrival %d started with %d PerArrival entries recorded; timing must close before placement", placeCalls, got)
		}
	}
	w := &workload.Workload{Templates: adv.Env().Templates, Queries: []workload.Query{
		{TemplateID: 0, Tag: 0, Arrival: 0},
		{TemplateID: 1, Tag: 1, Arrival: 30 * time.Second},
		{TemplateID: 2, Tag: 2, Arrival: 60 * time.Second},
	}}
	res, err := o.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if placeCalls != 3 || len(res.PerArrival) != 3 {
		t.Fatalf("3 arrivals: place ran %d times, %d PerArrival entries", placeCalls, len(res.PerArrival))
	}
	var sum time.Duration
	for _, d := range res.PerArrival {
		sum += d
	}
	if sum != res.SchedulingTime {
		t.Fatalf("SchedulingTime %s != sum of PerArrival %s", res.SchedulingTime, sum)
	}
}

// An unservable (template, VM type) pair during online placement is a bug
// upstream and must surface as an error, not a 1000-hour simulated query.
func TestOnlinePlaceRejectsUnservablePair(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(2), []cloud.VMType{
		{ID: 0, Name: "tiny", StartupCost: 0.08, RatePerHour: 2, SupportsHighRAM: false, HighRAMMultiplier: 1},
	})
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	m := &Model{Goal: goal, env: env, prob: graph.NewProblem(env, goal)}
	o := NewOnlineScheduler(m, DefaultOnlineOptions())
	// Template 1 is high-RAM: "tiny" cannot run it. Hand place a schedule
	// that claims otherwise.
	s := o.NewStream(&SimClock{})
	s.ensureTag(7)
	s.tags[7] = tagState{template: 1}
	sched := &schedule.Schedule{VMs: []schedule.VM{
		{TypeID: 0, Queue: []schedule.Placed{{TemplateID: 1, Tag: 7}}},
	}}
	if err := s.place(0, sched); err == nil {
		t.Fatal("place accepted an unservable (template, VM type) pair")
	}
}
