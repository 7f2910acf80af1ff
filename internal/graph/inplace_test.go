package graph

import (
	"math/rand"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// ApplyInPlace must reach exactly the state Apply allocates, field by field
// and signature by signature, over randomized valid walks — for every goal
// family.
func TestApplyInPlaceMatchesApply(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	goals := map[string]sla.Goal{
		"max":        sla.NewMaxLatency(10*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"perquery":   sla.NewPerQuery(2, env.Templates, sla.DefaultPenaltyRate),
		"average":    sla.NewAverage(8*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"percentile": sla.NewPercentile(80, 8*time.Minute, env.Templates, sla.DefaultPenaltyRate),
	}
	for name, goal := range goals {
		t.Run(name, func(t *testing.T) {
			p := NewProblem(env, goal)
			rng := rand.New(rand.NewSource(21))
			for trial := 0; trial < 20; trial++ {
				w := workload.NewSampler(env.Templates, int64(trial)).Uniform(8)
				ref := p.Start(w)
				inPlace := p.Start(w)
				for !ref.IsGoal() {
					acts := p.Actions(ref)
					a := acts[rng.Intn(len(acts))]
					ref = p.Apply(ref, a)
					p.ApplyInPlace(inPlace, a)
					compareStates(t, p, ref, inPlace)
				}
			}
		})
	}
}

func compareStates(t *testing.T, p *Problem, want, got *State) {
	t.Helper()
	if len(want.Unassigned) != len(got.Unassigned) {
		t.Fatalf("Unassigned length %d vs %d", len(got.Unassigned), len(want.Unassigned))
	}
	for i := range want.Unassigned {
		if want.Unassigned[i] != got.Unassigned[i] {
			t.Fatalf("Unassigned[%d]: %d vs %d", i, got.Unassigned[i], want.Unassigned[i])
		}
	}
	if want.OpenType != got.OpenType {
		t.Fatalf("OpenType: %d vs %d", got.OpenType, want.OpenType)
	}
	if len(want.OpenQueue) != len(got.OpenQueue) {
		t.Fatalf("OpenQueue length %d vs %d", len(got.OpenQueue), len(want.OpenQueue))
	}
	for i := range want.OpenQueue {
		if want.OpenQueue[i] != got.OpenQueue[i] {
			t.Fatalf("OpenQueue[%d]: %d vs %d", i, got.OpenQueue[i], want.OpenQueue[i])
		}
	}
	if want.Wait != got.Wait {
		t.Fatalf("Wait: %s vs %s", got.Wait, want.Wait)
	}
	if w, g := want.Acc.Penalty(), got.Acc.Penalty(); w != g {
		t.Fatalf("Acc.Penalty: %g vs %g", g, w)
	}
	if w, g := p.Signature(want), p.Signature(got); w != g {
		t.Fatalf("Signature: %q vs %q", g, w)
	}
}

// ApplyInPlace must reject the same invalid actions Apply rejects.
func TestApplyInPlacePanicsOnInvalid(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(2), cloud.DefaultVMTypes(1))
	goal := sla.NewMaxLatency(10*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	p := NewProblem(env, goal)
	w := &workload.Workload{Templates: env.Templates, Queries: []workload.Query{{TemplateID: 0}}}
	s := p.Start(w)
	mustPanic(t, "placement with no open VM", func() {
		p.ApplyInPlace(s, Action{Kind: Place, Template: 0})
	})
	mustPanic(t, "unknown VM type", func() {
		p.ApplyInPlace(s, Action{Kind: Startup, VMType: 99})
	})
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	fn()
}
