package features

import (
	"math/rand"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

func setup(numTemplates, numTypes int) (*graph.Problem, *schedule.Env) {
	env := schedule.NewEnv(workload.DefaultTemplates(numTemplates), cloud.DefaultVMTypes(numTypes))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	return graph.NewProblem(env, goal), env
}

func wl(env *schedule.Env, ids ...int) *workload.Workload {
	qs := make([]workload.Query, len(ids))
	for i, id := range ids {
		qs[i] = workload.Query{TemplateID: id, Tag: i}
	}
	return &workload.Workload{Templates: env.Templates, Queries: qs}
}

func TestVectorLenAndNames(t *testing.T) {
	if VectorLen(3) != 13 {
		t.Fatalf("want 13 features for 3 templates, got %d", VectorLen(3))
	}
	names := Names(2)
	want := []string{
		"wait-time",
		"proportion-of-T0", "supports-T0", "cost-of-T0", "have-T0",
		"proportion-of-T1", "supports-T1", "cost-of-T1", "have-T1",
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("name %d: want %q, got %q", i, want[i], names[i])
		}
	}
}

func TestStartVertexFeatures(t *testing.T) {
	p, env := setup(3, 1)
	v := Extract(p, p.Start(wl(env, 0, 2)))
	if v[0] != 0 {
		t.Fatal("wait-time at start must be 0")
	}
	for i := 0; i < 3; i++ {
		base := 1 + PerTemplate*i
		if v[base] != 0 {
			t.Fatal("proportions must be 0 with no VM")
		}
		if v[base+1] != 0 {
			t.Fatal("supports-X must be 0 with no VM")
		}
		if v[base+2] != Infinite {
			t.Fatal("cost-of-X must be Infinite with no VM")
		}
	}
	if v[1+PerTemplate*0+3] != 1 || v[1+PerTemplate*1+3] != 0 || v[1+PerTemplate*2+3] != 1 {
		t.Fatal("have-X must reflect unassigned instances")
	}
}

func TestFeaturesAfterPlacements(t *testing.T) {
	p, env := setup(2, 1)
	s := p.Start(wl(env, 0, 0, 0, 1))
	s = p.Apply(s, graph.Action{Kind: graph.Startup, VMType: 0})
	s = p.Apply(s, graph.Action{Kind: graph.Place, Template: 0})
	s = p.Apply(s, graph.Action{Kind: graph.Place, Template: 0})
	s = p.Apply(s, graph.Action{Kind: graph.Place, Template: 1})
	v := Extract(p, s)
	lat0, _ := env.Latency(0, 0)
	lat1, _ := env.Latency(1, 0)
	if want := (2*lat0 + lat1).Seconds(); v[0] != want {
		t.Fatalf("wait-time: want %g, got %g", want, v[0])
	}
	// proportion-of-T0 = 2/3, T1 = 1/3 (the paper's worked example form).
	if v[1] < 0.66 || v[1] > 0.67 {
		t.Fatalf("proportion-of-T0: want 2/3, got %g", v[1])
	}
	if v[1+PerTemplate] < 0.33 || v[1+PerTemplate] > 0.34 {
		t.Fatalf("proportion-of-T1: want 1/3, got %g", v[1+PerTemplate])
	}
	// supports on an open t2.medium VM.
	if v[2] != 1 || v[2+PerTemplate] != 1 {
		t.Fatal("supports must be 1")
	}
	// cost-of-X is finite and includes the running cost.
	if v[3] >= Infinite || v[3] <= 0 {
		t.Fatalf("cost-of-T0: got %g", v[3])
	}
	// have-T0 still 1, have-T1 exhausted.
	if v[4] != 1 || v[4+PerTemplate] != 0 {
		t.Fatalf("have flags wrong: %v", v)
	}
}

func TestCostOfXIncludesPenalty(t *testing.T) {
	p, env := setup(2, 1)
	p.Goal = sla.NewMaxLatency(env.Templates[0].BaseLatency, env.Templates, 1)
	s := p.Start(wl(env, 0, 1))
	s = p.Apply(s, graph.Action{Kind: graph.Startup, VMType: 0})
	v := Extract(p, s)
	lat1, _ := env.Latency(1, 0)
	vt := env.VMTypes[0]
	overage := (lat1 - env.Templates[0].BaseLatency).Seconds()
	want := vt.RunningCost(lat1) + overage
	got := v[1+PerTemplate+2]
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("cost-of-T1 with penalty: want %g, got %g", want, got)
	}
}

func TestCostOfXDefinedWithoutUnassignedInstances(t *testing.T) {
	// cost-of-X is defined even when no instance of X remains (§4.4);
	// only have-X reflects availability.
	p, env := setup(2, 1)
	s := p.Start(wl(env, 1))
	s = p.Apply(s, graph.Action{Kind: graph.Startup, VMType: 0})
	v := Extract(p, s)
	if v[3] >= Infinite {
		t.Fatal("cost-of-T0 must be finite on an open supporting VM")
	}
	if v[4] != 0 {
		t.Fatal("have-T0 must be 0")
	}
}

func TestUnsupportedTemplateFeatures(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(2), []cloud.VMType{
		{ID: 0, Name: "tiny", StartupCost: 0.08, RatePerHour: 2, SupportsHighRAM: false, HighRAMMultiplier: 1},
	})
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, 1)
	p := graph.NewProblem(env, goal)
	s := p.Start(wl(env, 0, 1))
	s = p.Apply(s, graph.Action{Kind: graph.Startup, VMType: 0})
	v := Extract(p, s)
	// Template 1 is high-RAM and unsupported on "tiny".
	if v[1+PerTemplate+1] != 0 {
		t.Fatal("supports-T1 must be 0 on a non-high-RAM type")
	}
	if v[1+PerTemplate+2] != Infinite {
		t.Fatal("cost-of-T1 must be Infinite when unsupported")
	}
	if v[2] != 1 {
		t.Fatal("supports-T0 must be 1")
	}
}

// Features must not depend on workload size: two states with identical open
// VM and availability flags but different unassigned counts produce
// identical vectors (§4.4's second requirement).
func TestFeaturesSizeIndependent(t *testing.T) {
	p, env := setup(2, 1)
	small := p.Start(wl(env, 0, 1))
	small = p.Apply(small, graph.Action{Kind: graph.Startup, VMType: 0})
	big := p.Start(wl(env, 0, 0, 0, 0, 0, 1, 1, 1))
	big = p.Apply(big, graph.Action{Kind: graph.Startup, VMType: 0})
	vs, vb := Extract(p, small), Extract(p, big)
	for i := range vs {
		if vs[i] != vb[i] {
			t.Fatalf("feature %d differs with workload size: %g vs %g", i, vs[i], vb[i])
		}
	}
}

// The incremental State must produce exactly Extract's vector at every step
// of randomized walks — same floats, bit for bit — for every goal family,
// including environments with unsupported (template, type) pairs.
func TestIncrementalStateMatchesExtract(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	goals := map[string]sla.Goal{
		"max":        sla.NewMaxLatency(10*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"perquery":   sla.NewPerQuery(2, env.Templates, sla.DefaultPenaltyRate),
		"average":    sla.NewAverage(8*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"percentile": sla.NewPercentile(80, 8*time.Minute, env.Templates, sla.DefaultPenaltyRate),
	}
	for name, goal := range goals {
		t.Run(name, func(t *testing.T) {
			p := graph.NewProblem(env, goal)
			rng := rand.New(rand.NewSource(17))
			fs := NewState(p)
			var buf []float64
			for trial := 0; trial < 15; trial++ {
				w := workload.NewSampler(env.Templates, int64(trial)).Uniform(8)
				s := p.Start(w)
				fs.Reset(s) // mid-walk attach: Reset must recount any vertex
				for !s.IsGoal() {
					buf = fs.AppendTo(buf[:0], s)
					ref := Extract(p, s)
					if len(buf) != len(ref) {
						t.Fatalf("vector length %d, Extract has %d", len(buf), len(ref))
					}
					for i := range ref {
						if buf[i] != ref[i] {
							t.Fatalf("feature %d: incremental %g, Extract %g", i, buf[i], ref[i])
						}
					}
					acts := p.Actions(s)
					a := acts[rng.Intn(len(acts))]
					s = p.Apply(s, a)
					fs.Apply(a)
				}
			}
		})
	}
}

// Steady-state incremental extraction must not allocate.
func TestIncrementalStateAllocationFree(t *testing.T) {
	p, env := setup(3, 2)
	fs := NewState(p)
	s := p.Start(wl(env, 0, 1, 2, 0))
	s = p.Apply(s, graph.Action{Kind: graph.Startup, VMType: 0})
	s = p.Apply(s, graph.Action{Kind: graph.Place, Template: 0})
	fs.Reset(s)
	buf := make([]float64, 0, VectorLen(3))
	allocs := testing.AllocsPerRun(100, func() {
		buf = fs.AppendTo(buf[:0], s)
	})
	if allocs > 0 {
		t.Fatalf("AppendTo allocated %g times per run", allocs)
	}
}
