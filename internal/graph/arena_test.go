package graph

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// arenaGoals returns one goal per accumulator class: history-free
// (ApplyArena shares the accumulator) and history-bearing (ApplyArena must
// advance it like Apply).
func arenaGoals(env *schedule.Env) map[string]sla.Goal {
	return map[string]sla.Goal{
		"max":        sla.NewMaxLatency(12*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"perquery":   sla.NewPerQuery(2, env.Templates, sla.DefaultPenaltyRate),
		"average":    sla.NewAverage(8*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"percentile": sla.NewPercentile(80, 8*time.Minute, env.Templates, sla.DefaultPenaltyRate),
	}
}

// ApplyArena must agree with Apply on every observable the search derives
// from a state: signature, goal test, action set, placement costs of the
// successors, and — for history-bearing goals — the accumulator itself.
// For history-free goals the shared accumulator makes Penalty() stale by
// design; the penalty-relevant part of edge weights telescopes, which is
// exactly what the placement-cost comparison verifies.
func TestApplyArenaMatchesApply(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	for name, goal := range arenaGoals(env) {
		t.Run(name, func(t *testing.T) {
			prob := NewProblem(env, goal)
			ref := NewProblem(env, goal)
			var ar Arena
			rng := rand.New(rand.NewSource(7))
			sampler := workload.NewSampler(env.Templates, 19)
			for trial := 0; trial < 20; trial++ {
				ar.Reset()
				w := sampler.Uniform(6)
				a := prob.Start(w)
				b := ref.Start(w)
				for step := 0; !b.IsGoal(); step++ {
					actsA := prob.Actions(a)
					actsB := ref.Actions(b)
					if len(actsA) != len(actsB) {
						t.Fatalf("trial %d step %d: %d actions vs %d", trial, step, len(actsA), len(actsB))
					}
					for i := range actsA {
						if actsA[i] != actsB[i] {
							t.Fatalf("trial %d step %d: action %d differs: %+v vs %+v", trial, step, i, actsA[i], actsB[i])
						}
					}
					for _, act := range actsA {
						if act.Kind != Place {
							continue
						}
						ca, oka := prob.PlacementCost(a, act.Template)
						cb, okb := ref.PlacementCost(b, act.Template)
						if oka != okb || ca != cb {
							t.Fatalf("trial %d step %d: placement cost T%d: (%v,%v) vs (%v,%v)", trial, step, act.Template, ca, oka, cb, okb)
						}
					}
					if got, want := prob.Signature(a), ref.Signature(b); got != want {
						t.Fatalf("trial %d step %d: signature %q vs %q", trial, step, got, want)
					}
					act := actsA[rng.Intn(len(actsA))]
					a = prob.ApplyArena(&ar, a, act)
					b = ref.Apply(b, act)
					if a.IsGoal() != b.IsGoal() || a.Wait != b.Wait || a.OpenType != b.OpenType {
						t.Fatalf("trial %d step %d: state fields diverge: %+v vs %+v", trial, step, a, b)
					}
					if !sla.PenaltyHistoryFree(goal) && a.Acc.Penalty() != b.Acc.Penalty() {
						t.Fatalf("trial %d step %d: accumulator penalty %v vs %v", trial, step, a.Acc.Penalty(), b.Acc.Penalty())
					}
				}
			}
		})
	}
}

// StartArena builds Start's vertex on a reused arena — whatever the
// arena's states and int slabs held before — and one empty accumulator
// serves every start: each trial's walk starts from the accumulator the
// walks before it advanced from, and prices and signs every step as a walk
// from Start does.
func TestStartArenaMatchesStart(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	for name, goal := range arenaGoals(env) {
		t.Run(name, func(t *testing.T) {
			prob := NewProblem(env, goal)
			empty := sla.NewAccumulator(goal)
			var ar Arena
			rng := rand.New(rand.NewSource(3))
			sampler := workload.NewSampler(env.Templates, 23)
			for trial := 0; trial < 20; trial++ {
				w := sampler.Uniform(1 + trial%7)
				ref := prob.Start(w)
				a := prob.StartArena(&ar, w, empty)
				if !slices.Equal(a.Unassigned, ref.Unassigned) || a.OpenType != NoVM || len(a.OpenQueue) != 0 || a.Wait != 0 || a.Acc.Penalty() != 0 {
					t.Fatalf("trial %d: arena start %+v, Start %+v", trial, a, ref)
				}
				for !ref.IsGoal() {
					if got, want := prob.Signature(a), prob.Signature(ref); got != want {
						t.Fatalf("trial %d: signature %q vs %q", trial, got, want)
					}
					acts := prob.Actions(ref)
					act := acts[rng.Intn(len(acts))]
					if act.Kind == Place {
						ca, _ := prob.PlacementCost(a, act.Template)
						cb, _ := prob.PlacementCost(ref, act.Template)
						if ca != cb {
							t.Fatalf("trial %d: placement cost %v vs %v", trial, ca, cb)
						}
					}
					// The arena keeps what this walk wrote: the next trial's
					// start is carved over it.
					a = prob.ApplyArena(&ar, a, act)
					ref = prob.Apply(ref, act)
					if !sla.PenaltyHistoryFree(goal) && a.Acc.Penalty() != ref.Acc.Penalty() {
						t.Fatalf("trial %d: accumulator penalty %v vs %v", trial, a.Acc.Penalty(), ref.Acc.Penalty())
					}
				}
				ar.Reset()
			}
		})
	}
}

// Parent states must stay intact when ApplyArena branches several children
// off one state (the search expands every out-edge of a node).
func TestApplyArenaBranchingPreservesParent(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(1))
	goal := sla.NewMaxLatency(10*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	prob := NewProblem(env, goal)
	var ar Arena
	w := workload.NewSampler(env.Templates, 5).Uniform(5)
	s := prob.Start(w)
	s = prob.ApplyArena(&ar, s, Action{Kind: Startup, VMType: 0})
	s = prob.ApplyArena(&ar, s, Action{Kind: Place, Template: s.firstUnassigned()})
	sig := prob.Signature(s)
	var children []*State
	for _, act := range prob.Actions(s) {
		children = append(children, prob.ApplyArena(&ar, s, act))
	}
	if got := prob.Signature(s); got != sig {
		t.Fatalf("parent signature changed after branching: %q -> %q", sig, got)
	}
	for i, c := range children {
		if c == s {
			t.Fatalf("child %d aliases its parent", i)
		}
	}
}

// firstUnassigned returns a template with remaining instances (test helper).
func (s *State) firstUnassigned() int {
	for t, c := range s.Unassigned {
		if c > 0 {
			return t
		}
	}
	return -1
}

// AppendActions must reuse the caller's buffer and match Actions exactly.
func TestAppendActionsReusesBuffer(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(10*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	prob := NewProblem(env, goal)
	w := workload.NewSampler(env.Templates, 11).Uniform(6)
	s := prob.Start(w)
	buf := make([]Action, 0, 16)
	for step := 0; !s.IsGoal(); step++ {
		buf = prob.AppendActions(buf[:0], s)
		ref := prob.Actions(s)
		if len(buf) != len(ref) {
			t.Fatalf("step %d: AppendActions %d actions, Actions %d", step, len(buf), len(ref))
		}
		for i := range ref {
			if buf[i] != ref[i] {
				t.Fatalf("step %d: action %d differs", step, i)
			}
		}
		s = prob.Apply(s, ref[0])
	}
}
