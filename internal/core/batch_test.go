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

// buildState walks a problem through a sequence of actions.
func buildState(p *graph.Problem, w *workload.Workload, actions ...graph.Action) *graph.State {
	s := p.Start(w)
	for _, a := range actions {
		s = p.Apply(s, a)
	}
	return s
}

// The dominated-placement guard must override a placement whose cost
// strictly exceeds the fresh-VM alternative, and leave cheaper placements
// alone.
func TestGuardDominatedPlacement(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(2), cloud.DefaultVMTypes(1))
	// Deadline equal to the shortest template: stacking anything incurs
	// penalties that dwarf the 0.08¢ start-up fee.
	goal := sla.NewMaxLatency(env.Templates[0].BaseLatency, env.Templates, sla.DefaultPenaltyRate)
	m := &Model{Goal: goal, env: env, prob: graph.NewProblem(env, goal)}
	w := &workload.Workload{Templates: env.Templates, Queries: []workload.Query{
		{TemplateID: 0, Tag: 0}, {TemplateID: 0, Tag: 1},
	}}
	s := buildState(m.prob, w,
		graph.Action{Kind: graph.Startup, VMType: 0},
		graph.Action{Kind: graph.Place, Template: 0})
	// Placing the second T0 behind the first misses the deadline by a
	// full template latency: the guard must turn it into a start-up.
	got := guard(t, m, s, graph.Action{Kind: graph.Place, Template: 0})
	if got.Kind != graph.Startup {
		t.Fatalf("dominated placement not overridden: %+v", got)
	}

	// With a loose goal, stacking saves the start-up fee and must pass
	// through untouched.
	loose := sla.NewMaxLatency(24*time.Hour, env.Templates, sla.DefaultPenaltyRate)
	ml := &Model{Goal: loose, env: env, prob: graph.NewProblem(env, loose)}
	sl := buildState(ml.prob, w,
		graph.Action{Kind: graph.Startup, VMType: 0},
		graph.Action{Kind: graph.Place, Template: 0})
	got = guard(t, ml, sl, graph.Action{Kind: graph.Place, Template: 0})
	if got.Kind != graph.Place {
		t.Fatalf("beneficial stacking overridden: %+v", got)
	}
}

// The guard must never fire on an empty open VM: the fresh-VM alternative
// is the same placement plus a start-up fee.
func TestGuardLeavesEmptyVMAlone(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(2), cloud.DefaultVMTypes(1))
	goal := sla.NewMaxLatency(time.Minute, env.Templates, sla.DefaultPenaltyRate)
	m := &Model{Goal: goal, env: env, prob: graph.NewProblem(env, goal)}
	w := &workload.Workload{Templates: env.Templates, Queries: []workload.Query{{TemplateID: 0, Tag: 0}}}
	s := buildState(m.prob, w, graph.Action{Kind: graph.Startup, VMType: 0})
	act := graph.Action{Kind: graph.Place, Template: 0}
	if got := guard(t, m, s, act); got != act {
		t.Fatalf("guard fired on an empty VM: %+v", got)
	}
}

// guard runs the dominated-placement guard the way the serving loop does,
// at flat prices, with the placement's Eq. 2 cost.
func guard(t *testing.T, m *Model, s *graph.State, act graph.Action) graph.Action {
	t.Helper()
	cost, ok := m.prob.PlacementCost(s, act.Template)
	if !ok {
		t.Fatalf("placement %+v is not an edge", act)
	}
	return m.guardWithCost(s, act, cost, 1)
}

// repair must convert every invalid prediction into a valid action, for
// every reachable state shape.
func TestRepairAlwaysValid(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(2))
	goal := sla.NewPerQuery(3, env.Templates, sla.DefaultPenaltyRate)
	m := &Model{Goal: goal, env: env, prob: graph.NewProblem(env, goal)}
	w := &workload.Workload{Templates: env.Templates, Queries: []workload.Query{
		{TemplateID: 0, Tag: 0}, {TemplateID: 2, Tag: 1},
	}}
	states := []*graph.State{
		m.prob.Start(w),
		buildState(m.prob, w, graph.Action{Kind: graph.Startup, VMType: 0}),
		buildState(m.prob, w,
			graph.Action{Kind: graph.Startup, VMType: 0},
			graph.Action{Kind: graph.Place, Template: 0}),
	}
	candidates := []graph.Action{
		{Kind: graph.Place, Template: 0},
		{Kind: graph.Place, Template: 1}, // never unassigned
		{Kind: graph.Place, Template: 2},
		{Kind: graph.Startup, VMType: 0},
		{Kind: graph.Startup, VMType: 1},
		{Kind: graph.Startup, VMType: 99}, // out of range
	}
	for si, s := range states {
		for _, cand := range candidates {
			got := m.repair(s, cand)
			switch got.Kind {
			case graph.Place:
				if !m.prob.CanPlace(s, got.Template) {
					t.Fatalf("state %d: repair(%+v) returned invalid placement %+v", si, cand, got)
				}
			case graph.Startup:
				if !s.CanStartup() {
					t.Fatalf("state %d: repair(%+v) returned invalid startup %+v", si, cand, got)
				}
			}
		}
	}
}

// retag must hand out each workload tag exactly once, matching templates.
func TestRetagSchedule(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(2), cloud.DefaultVMTypes(1))
	w := &workload.Workload{Templates: env.Templates, Queries: []workload.Query{
		{TemplateID: 0, Tag: 10}, {TemplateID: 1, Tag: 11}, {TemplateID: 0, Tag: 12},
	}}
	sched := &schedule.Schedule{VMs: []schedule.VM{
		{TypeID: 0, Queue: []schedule.Placed{{TemplateID: 1}, {TemplateID: 0}}},
		{TypeID: 0, Queue: []schedule.Placed{{TemplateID: 0}}},
	}}
	new(servingScratch).retag(sched, w)
	if err := sched.Validate(env, w); err != nil {
		t.Fatalf("retagged schedule invalid: %v", err)
	}
	if sched.VMs[0].Queue[0].Tag != 11 {
		t.Fatalf("template-1 query should carry tag 11, got %d", sched.VMs[0].Queue[0].Tag)
	}
}

// Scheduling the empty workload must yield an empty schedule.
func TestScheduleEmptyWorkload(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := m.ScheduleBatch(&workload.Workload{Templates: adv.Env().Templates})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.VMs) != 0 {
		t.Fatalf("empty workload produced %d VMs", len(sched.VMs))
	}
}

// Workloads heavily skewed to one template must still schedule completely
// and near-cheaply (§7.5: models are trained on uniform samples only).
func TestScheduleSkewedWorkload(t *testing.T) {
	adv := smallAdvisor(t, 5, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]workload.Query, 20)
	for i := range queries {
		queries[i] = workload.Query{TemplateID: 4, Tag: i} // single template
	}
	w := &workload.Workload{Templates: adv.Env().Templates, Queries: queries}
	sched, err := m.ScheduleBatch(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(adv.Env(), w); err != nil {
		t.Fatal(err)
	}
	if pen := sched.Penalty(adv.Env(), goal); pen > 60 {
		t.Fatalf("skewed workload penalty %f; model failed to spread the load (%s)", pen, sched)
	}
}
