package graph

import (
	"fmt"
	"math"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

func testProblem(numTemplates, numTypes int) (*Problem, *schedule.Env) {
	env := schedule.NewEnv(workload.DefaultTemplates(numTemplates), cloud.DefaultVMTypes(numTypes))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	return NewProblem(env, goal), env
}

func wl(env *schedule.Env, templateIDs ...int) *workload.Workload {
	qs := make([]workload.Query, len(templateIDs))
	for i, t := range templateIDs {
		qs[i] = workload.Query{TemplateID: t, Tag: i}
	}
	return &workload.Workload{Templates: env.Templates, Queries: qs}
}

func TestStartVertex(t *testing.T) {
	p, env := testProblem(3, 1)
	s := p.Start(wl(env, 0, 0, 2))
	if s.OpenType != NoVM || s.Wait != 0 {
		t.Fatal("start vertex must have no VM")
	}
	if s.Unassigned[0] != 2 || s.Unassigned[1] != 0 || s.Unassigned[2] != 1 {
		t.Fatalf("bad unassigned counts %v", s.Unassigned)
	}
	if s.IsGoal() {
		t.Fatal("start with queries is not a goal")
	}
	if !p.Start(wl(env)).IsGoal() {
		t.Fatal("empty workload start is a goal")
	}
}

func TestStartupOnlyFromUsefulStates(t *testing.T) {
	p, env := testProblem(2, 1)
	s := p.Start(wl(env, 0, 1))
	if !s.CanStartup() {
		t.Fatal("start vertex must allow renting the first VM")
	}
	s = p.Apply(s, Action{Kind: Startup, VMType: 0})
	if s.CanStartup() {
		t.Fatal("reduction 1: no start-up while the open VM is empty")
	}
	s = p.Apply(s, Action{Kind: Place, Template: 0})
	if !s.CanStartup() {
		t.Fatal("start-up allowed once the open VM has work")
	}
}

func TestPlacementRequiresOpenVMAndAvailability(t *testing.T) {
	p, env := testProblem(2, 1)
	s := p.Start(wl(env, 0))
	if p.CanPlace(s, 0) {
		t.Fatal("cannot place without a VM")
	}
	s = p.Apply(s, Action{Kind: Startup, VMType: 0})
	if !p.CanPlace(s, 0) {
		t.Fatal("placement must be allowed")
	}
	if p.CanPlace(s, 1) {
		t.Fatal("template 1 has no unassigned instances")
	}
	s = p.Apply(s, Action{Kind: Place, Template: 0})
	if p.CanPlace(s, 0) {
		t.Fatal("no instances left")
	}
	if !s.IsGoal() {
		t.Fatal("all queries assigned: goal")
	}
}

func TestPlacementCostMatchesEquationTwo(t *testing.T) {
	p, env := testProblem(2, 1)
	// Tight deadline so penalties appear: deadline = shortest latency.
	p.Goal = sla.NewMaxLatency(env.Templates[0].BaseLatency, env.Templates, 1)
	s := p.Start(wl(env, 0, 1))
	s = p.Apply(s, Action{Kind: Startup, VMType: 0})
	vt := env.VMTypes[0]
	lat0, _ := env.Latency(0, 0)
	c, ok := p.PlacementCost(s, 0)
	if !ok || math.Abs(c-vt.RunningCost(lat0)) > 1e-12 {
		t.Fatalf("penalty-free placement: want %g, got %g", vt.RunningCost(lat0), c)
	}
	// Template 1 exceeds the deadline by its extra latency.
	lat1, _ := env.Latency(1, 0)
	wantPen := (lat1 - env.Templates[0].BaseLatency).Seconds()
	c1, _ := p.PlacementCost(s, 1)
	if math.Abs(c1-(vt.RunningCost(lat1)+wantPen)) > 1e-9 {
		t.Fatalf("violating placement: want %g, got %g", vt.RunningCost(lat1)+wantPen, c1)
	}
}

func TestWaitAccumulates(t *testing.T) {
	p, env := testProblem(3, 1)
	s := p.Start(wl(env, 0, 1, 2))
	s = p.Apply(s, Action{Kind: Startup, VMType: 0})
	s = p.Apply(s, Action{Kind: Place, Template: 2})
	lat2, _ := env.Latency(2, 0)
	if s.Wait != lat2 {
		t.Fatalf("wait after one placement: want %s, got %s", lat2, s.Wait)
	}
	s = p.Apply(s, Action{Kind: Place, Template: 0})
	lat0, _ := env.Latency(0, 0)
	if s.Wait != lat2+lat0 {
		t.Fatalf("wait must accumulate: want %s, got %s", lat2+lat0, s.Wait)
	}
	// A new VM resets the wait.
	s = p.Apply(s, Action{Kind: Startup, VMType: 0})
	if s.Wait != 0 {
		t.Fatal("new VM must have zero wait")
	}
}

func TestSignatureMergesEquivalentStates(t *testing.T) {
	p, env := testProblem(2, 1)
	// Two orders of placing T0 then T1 vs T1 then T0 yield different
	// queue compositions but identical (wait, unassigned) - for a
	// decomposable goal their signatures must match so the search merges
	// them.
	w := wl(env, 0, 0, 0, 1, 1)
	a := p.Start(w)
	a = p.Apply(a, Action{Kind: Startup, VMType: 0})
	a = p.Apply(a, Action{Kind: Place, Template: 0})
	a = p.Apply(a, Action{Kind: Place, Template: 0})
	a = p.Apply(a, Action{Kind: Place, Template: 1})
	b := p.Start(w)
	b = p.Apply(b, Action{Kind: Startup, VMType: 0})
	b = p.Apply(b, Action{Kind: Place, Template: 1})
	b = p.Apply(b, Action{Kind: Place, Template: 0})
	b = p.Apply(b, Action{Kind: Place, Template: 0})
	if p.Signature(a) != p.Signature(b) {
		t.Fatal("order-independent states must share a signature (decomposable goal)")
	}
	// Different unassigned counts must not merge.
	c := p.Apply(a, Action{Kind: Place, Template: 0})
	if p.Signature(c) == p.Signature(a) {
		t.Fatal("states with different unassigned counts merged")
	}
}

func TestActionsDeterministicOrder(t *testing.T) {
	p, env := testProblem(3, 2)
	s := p.Start(wl(env, 0, 1, 2))
	acts := p.Actions(s)
	// No VM yet: only start-up edges, one per usable type.
	if len(acts) != 2 || acts[0].Kind != Startup || acts[1].Kind != Startup {
		t.Fatalf("start vertex actions: %v", acts)
	}
	s = p.Apply(s, acts[0])
	acts = p.Actions(s)
	// Open empty VM: placements only.
	for _, a := range acts {
		if a.Kind != Place {
			t.Fatalf("empty open VM must not offer start-up, got %v", acts)
		}
	}
}

// BuildSchedule numbers placements in path order and caps each queue's
// capacity at its length, and BuildScheduleInto rebuilds the same schedule
// into recycled storage without allocating.
func TestBuildSchedule(t *testing.T) {
	actions := []Action{
		{Kind: Startup, VMType: 0},
		{Kind: Place, Template: 2},
		{Kind: Place, Template: 0},
		{Kind: Startup, VMType: 1},
		{Kind: Place, Template: 1},
	}
	sched := BuildSchedule(actions)
	want := "[{0 [{2 0} {0 1}]} {1 [{1 2}]}]"
	if got := fmt.Sprint(sched.VMs); got != want {
		t.Fatalf("schedule %s, want %s", got, want)
	}
	if q := sched.VMs[0].Queue; cap(q) != len(q) {
		t.Fatalf("first queue has capacity %d beyond its %d queries", cap(q), len(q))
	}
	dst, backing := BuildScheduleInto(nil, nil, actions)
	allocs := testing.AllocsPerRun(20, func() {
		dst, backing = BuildScheduleInto(dst, backing, actions)
	})
	if got := fmt.Sprint(dst.VMs); got != want || allocs != 0 {
		t.Fatalf("recycled build: %s with %g allocs, want %s with 0", got, allocs, want)
	}
}

func TestActionLabelRoundTrip(t *testing.T) {
	const numTemplates = 7
	for label := 0; label < numTemplates+3; label++ {
		a := ActionFromLabel(label, numTemplates)
		if got := a.Label(numTemplates); got != label {
			t.Fatalf("label %d round-tripped to %d", label, got)
		}
	}
}
