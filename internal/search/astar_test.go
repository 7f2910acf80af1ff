package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

func testEnv(numTemplates, numTypes int) *schedule.Env {
	return schedule.NewEnv(workload.DefaultTemplates(numTemplates), cloud.DefaultVMTypes(numTypes))
}

func goalSet(env *schedule.Env) map[string]sla.Goal {
	return map[string]sla.Goal{
		"max":        sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"perquery":   sla.NewPerQuery(3, env.Templates, sla.DefaultPenaltyRate),
		"average":    sla.NewAverage(10*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"percentile": sla.NewPercentile(90, 10*time.Minute, env.Templates, sla.DefaultPenaltyRate),
	}
}

func solve(t *testing.T, prob *graph.Problem, w *workload.Workload, opts Options) *Result {
	t.Helper()
	s, err := New(prob)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Solve(w, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

// A* must agree with exhaustive enumeration on tiny workloads for every
// goal family, including the non-monotonic ones with negative edges.
func TestAStarMatchesBruteForce(t *testing.T) {
	env := testEnv(3, 2)
	for name, goal := range goalSet(env) {
		t.Run(name, func(t *testing.T) {
			sampler := workload.NewSampler(env.Templates, 7)
			prob := graph.NewProblem(env, goal)
			for trial := 0; trial < 8; trial++ {
				w := sampler.Uniform(5)
				res := solve(t, prob, w, Options{})
				want := BruteForceCost(prob, w)
				if math.Abs(res.Cost-want) > 1e-6 {
					t.Fatalf("trial %d: A* cost %.6f, brute force %.6f (schedule %s)", trial, res.Cost, want, res.Schedule())
				}
			}
		})
	}
}

// The cost reported by the search must equal the Eq. 1 cost of the schedule
// it returns.
func TestSearchCostMatchesScheduleCost(t *testing.T) {
	env := testEnv(5, 2)
	for name, goal := range goalSet(env) {
		t.Run(name, func(t *testing.T) {
			sampler := workload.NewSampler(env.Templates, 11)
			prob := graph.NewProblem(env, goal)
			for trial := 0; trial < 5; trial++ {
				w := sampler.Uniform(8)
				res := solve(t, prob, w, Options{})
				sched := res.Schedule()
				if err := sched.Validate(env, w); err != nil {
					t.Fatalf("invalid schedule: %v", err)
				}
				if got := sched.Cost(env, goal); math.Abs(got-res.Cost) > 1e-6 {
					t.Fatalf("trial %d: search cost %.6f, schedule cost %.6f", trial, res.Cost, got)
				}
			}
		})
	}
}

// With tight deadlines, the optimal schedule must spread queries across VMs
// instead of paying penalties; with very loose deadlines it must consolidate
// onto a single VM to avoid start-up fees.
func TestSearchRespondsToDeadlineTightness(t *testing.T) {
	env := testEnv(2, 1)
	w := &workload.Workload{Templates: env.Templates, Queries: []workload.Query{
		{TemplateID: 1, Tag: 0}, {TemplateID: 1, Tag: 1}, {TemplateID: 1, Tag: 2},
	}}
	tight := sla.NewMaxLatency(env.Templates[1].BaseLatency, env.Templates, sla.DefaultPenaltyRate)
	res := solve(t, graph.NewProblem(env, tight), w, Options{})
	if got := len(res.Schedule().VMs); got != 3 {
		t.Fatalf("tight deadline: want 3 VMs, got %d (%s)", got, res.Schedule())
	}
	loose := sla.NewMaxLatency(24*time.Hour, env.Templates, sla.DefaultPenaltyRate)
	res = solve(t, graph.NewProblem(env, loose), w, Options{})
	if got := len(res.Schedule().VMs); got != 1 {
		t.Fatalf("loose deadline: want 1 VM, got %d (%s)", got, res.Schedule())
	}
}

// The paper's §3 worked example: three templates with latencies 4, 3, and 2
// minutes, two queries each, max total execution time below nine minutes.
// FFD needs 3 VMs, FFI needs 3 VMs, and the optimum packs
// {[T1,T2,T3], [T1,T2,T3]} into two VMs.
func TestSearchFindsSectionThreeCounterexample(t *testing.T) {
	templates := []workload.Template{
		{ID: 0, Name: "T1", BaseLatency: 4 * time.Minute},
		{ID: 1, Name: "T2", BaseLatency: 3 * time.Minute},
		{ID: 2, Name: "T3", BaseLatency: 2 * time.Minute},
	}
	env := schedule.NewEnv(templates, cloud.DefaultVMTypes(1))
	goal := sla.NewMaxLatency(9*time.Minute, templates, 100) // stiff penalty: effectively a hard deadline
	w := &workload.Workload{Templates: templates, Queries: []workload.Query{
		{TemplateID: 0, Tag: 0}, {TemplateID: 0, Tag: 1},
		{TemplateID: 1, Tag: 2}, {TemplateID: 1, Tag: 3},
		{TemplateID: 2, Tag: 4}, {TemplateID: 2, Tag: 5},
	}}
	res := solve(t, graph.NewProblem(env, goal), w, Options{})
	if got := len(res.Schedule().VMs); got != 2 {
		t.Fatalf("want the 2-VM optimum from §3, got %d VMs (%s)", got, res.Schedule())
	}
	if pen := res.Schedule().Penalty(env, goal); pen != 0 {
		t.Fatalf("optimal schedule should meet the 9m goal, penalty %.2f", pen)
	}
}

// Adaptive reuse (§5) must preserve optimality: re-searching under a
// tightened goal with the old search's heuristic reuse yields exactly the
// cost of a fresh search.
func TestAdaptiveReuseMatchesFreshSearch(t *testing.T) {
	env := testEnv(4, 1)
	for name, goal := range goalSet(env) {
		t.Run(name, func(t *testing.T) {
			sampler := workload.NewSampler(env.Templates, 3)
			prob := graph.NewProblem(env, goal)
			s, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 6; trial++ {
				w := sampler.Uniform(7)
				old, err := s.Solve(w, Options{KeepClosed: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []float64{0.2, 0.5, 0.8} {
					tightened := goal.Tighten(p)
					tProb := graph.NewProblem(env, tightened)
					ts, err := New(tProb)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := ts.Solve(w, Options{})
					if err != nil {
						t.Fatal(err)
					}
					adaptive, err := ts.Solve(w, Options{Reuse: ReuseFrom(old)})
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(fresh.Cost-adaptive.Cost) > 1e-6 {
						t.Fatalf("trial %d p=%.1f: fresh %.6f, adaptive %.6f", trial, p, fresh.Cost, adaptive.Cost)
					}
					if adaptive.Expanded > fresh.Expanded {
						t.Logf("trial %d p=%.1f: adaptive expanded %d > fresh %d (allowed but unexpected)", trial, p, adaptive.Expanded, fresh.Expanded)
					}
				}
			}
		})
	}
}

// Regression: adaptive reuse must stay exact for non-monotonic goals. The
// Lemma 5.1 bound OldCost − g_old(v) is unsound when tightening can make an
// edge cheaper (refundable penalties: Average, Percentile) — the search must
// ignore reuse there rather than prune the optimum. Workload 4 of seed 3
// under Average tightened by 0.8 is a concrete input where applying the
// bound anyway returns 16.83¢ instead of the optimal 3.20¢.
func TestAdaptiveReuseSoundForRefundablePenalties(t *testing.T) {
	env := testEnv(4, 1)
	for _, name := range []string{"average", "percentile"} {
		goal := goalSet(env)[name]
		t.Run(name, func(t *testing.T) {
			sampler := workload.NewSampler(env.Templates, 3)
			var w *workload.Workload
			for i := 0; i < 4; i++ {
				w = sampler.Uniform(7)
			}
			s, err := New(graph.NewProblem(env, goal))
			if err != nil {
				t.Fatal(err)
			}
			old, err := s.Solve(w, Options{KeepClosed: true})
			if err != nil {
				t.Fatal(err)
			}
			ts, err := New(graph.NewProblem(env, goal.Tighten(0.8)))
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := ts.Solve(w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			adaptive, err := ts.Solve(w, Options{Reuse: ReuseFrom(old)})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(fresh.Cost-adaptive.Cost) > 1e-6 {
				t.Fatalf("reuse changed the optimum under a refundable-penalty goal: fresh %.6f, adaptive %.6f", fresh.Cost, adaptive.Cost)
			}
		})
	}
}

// Tightening a goal can only increase the optimal cost (the formal core of
// Lemma 5.1).
func TestTighteningNeverDecreasesOptimalCost(t *testing.T) {
	env := testEnv(3, 1)
	for name, goal := range goalSet(env) {
		t.Run(name, func(t *testing.T) {
			sampler := workload.NewSampler(env.Templates, 13)
			for trial := 0; trial < 5; trial++ {
				w := sampler.Uniform(6)
				prev := -math.MaxFloat64
				for _, p := range []float64{-0.4, 0, 0.3, 0.6, 0.9} {
					g := goal.Tighten(p)
					res := solve(t, graph.NewProblem(env, g), w, Options{})
					if res.Cost < prev-1e-6 {
						t.Fatalf("trial %d: tightening to p=%.1f decreased cost %.6f -> %.6f", trial, p, prev, res.Cost)
					}
					prev = res.Cost
				}
			}
		})
	}
}

// The heuristic of Eq. 3 must never overestimate: the f-value of the start
// vertex is a lower bound on the optimal cost.
func TestHeuristicAdmissibleAtStart(t *testing.T) {
	env := testEnv(4, 2)
	for name, goal := range goalSet(env) {
		t.Run(name, func(t *testing.T) {
			sampler := workload.NewSampler(env.Templates, 5)
			prob := graph.NewProblem(env, goal)
			s, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				w := sampler.Uniform(6)
				start := prob.Start(w)
				h := 0.0
				for tid, c := range start.Unassigned {
					mc, ok := env.CheapestLatencyCost(tid)
					if !ok {
						t.Fatal("template not runnable")
					}
					h += float64(c) * mc
				}
				res, err := s.Solve(w, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if h > res.Cost+1e-6 {
					t.Fatalf("trial %d: heuristic %.6f exceeds optimal %.6f", trial, h, res.Cost)
				}
			}
		})
	}
}

// Paths must obey the graph reductions: no start-up edge while the open VM
// is empty, and every placement targets the open VM by construction.
func TestOptimalPathObeysReductions(t *testing.T) {
	env := testEnv(4, 2)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	sampler := workload.NewSampler(env.Templates, 17)
	prob := graph.NewProblem(env, goal)
	for trial := 0; trial < 5; trial++ {
		w := sampler.Uniform(8)
		res := solve(t, prob, w, Options{})
		if res.Actions[0].Kind != graph.Startup {
			t.Fatal("first action must rent a VM")
		}
		for i := 1; i < len(res.Actions); i++ {
			if res.Actions[i].Kind == graph.Startup && res.Actions[i-1].Kind == graph.Startup {
				t.Fatalf("trial %d: consecutive start-up edges at %d", trial, i)
			}
		}
		if res.Actions[len(res.Actions)-1].Kind != graph.Place {
			t.Fatal("last action must place a query (no trailing empty VM)")
		}
	}
}

// Expansion limits must surface as non-optimal results, not wrong answers.
func TestExpansionLimit(t *testing.T) {
	env := testEnv(5, 1)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	sampler := workload.NewSampler(env.Templates, 29)
	w := sampler.Uniform(10)
	s, err := New(graph.NewProblem(env, goal))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(w, Options{MaxExpansions: 1}); err == nil {
		t.Fatal("want error when the limit fires before any schedule exists")
	}
	full, err := s.Solve(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Optimal {
		t.Fatal("unlimited search must report Optimal")
	}
}

// Larger workloads must still solve exactly and quickly enough for training:
// this guards against state-space blowups from signature regressions.
func TestSearchScalesToTrainingSize(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	env := testEnv(10, 1)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	sampler := workload.NewSampler(env.Templates, rand.Int63())
	s, err := New(graph.NewProblem(env, goal))
	if err != nil {
		t.Fatal(err)
	}
	w := sampler.Uniform(18)
	res, err := s.Solve(w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Schedule().NumQueries() != 18 {
		t.Fatalf("want optimal complete schedule, got optimal=%v queries=%d", res.Optimal, res.Schedule().NumQueries())
	}
	t.Logf("m=18 search expanded %d states, cost %.2f¢, %d VMs", res.Expanded, res.Cost, len(res.Schedule().VMs))
}

// A searcher made by WithoutPaths answers exactly as New's does — cost,
// actions, effort, suffix records, and which replays it refuses — and only
// leaves Path nil, for every goal family, with and without a cache.
func TestWithoutPathsKeepsResultsAndRecords(t *testing.T) {
	env := testEnv(4, 2)
	for name, goal := range goalSet(env) {
		t.Run(name, func(t *testing.T) {
			prob := graph.NewProblem(env, goal)
			s, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			bare := s.WithoutPaths()
			caches := [2]*TranspositionCache{NewTranspositionCache(), NewTranspositionCache()}
			sampler := workload.NewSampler(env.Templates, 31)
			for i := 0; i < 12; i++ {
				w := sampler.Uniform(3 + i%6)
				var recs [2]PendingSuffixes
				var res [2]*Result
				for j, sr := range []*Searcher{s, bare} {
					opts := Options{Record: &recs[j]}
					if i%2 == 1 {
						opts.Cache = caches[j]
					}
					if res[j], err = sr.Solve(w, opts); err != nil {
						t.Fatal(err)
					}
				}
				checkSameAnswer(t, fmt.Sprintf("solve %d", i), res, recs)
				for j := range caches {
					caches[j].Commit(&recs[j])
				}
				if !goal.Monotonic() {
					continue
				}
				for j, sr := range []*Searcher{s, bare} {
					if res[j], err = sr.Replay(w, res[0].Actions, res[0].Cost, &recs[j]); err != nil {
						t.Fatal(err)
					}
				}
				checkSameAnswer(t, fmt.Sprintf("replay %d", i), res, recs)
				for j := range caches {
					caches[j].Commit(&recs[j])
				}
				for j, sr := range []*Searcher{s, bare} {
					if _, err := sr.Replay(w, res[0].Actions, res[0].Cost+gridUnit, &recs[j]); err == nil {
						t.Fatalf("replay %d at a cost off by one grid unit accepted (searcher %d)", i, j)
					}
					if recs[j].Len() != 0 {
						t.Fatalf("a refused replay %d left %d records (searcher %d)", i, recs[j].Len(), j)
					}
				}
			}
			if !reflect.DeepEqual(caches[0].Export(0), caches[1].Export(0)) {
				t.Fatal("caches filled by the two searchers differ")
			}
		})
	}
}

// checkSameAnswer fails unless res[1], from a searcher without paths, is
// res[0] but for its Path, and recorded what res[0] recorded.
func checkSameAnswer(t *testing.T, what string, res [2]*Result, recs [2]PendingSuffixes) {
	t.Helper()
	want, got := *res[0], *res[1]
	if len(want.Path) != len(want.Actions) || got.Path != nil {
		t.Fatalf("%s: Path has %d steps for %d actions, and %d without paths", what, len(want.Path), len(want.Actions), len(got.Path))
	}
	want.Path = nil
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: without paths %+v, with paths %+v", what, got, want)
	}
	if !reflect.DeepEqual(recs[0].recs, recs[1].recs) {
		t.Fatalf("%s: records differ without paths", what)
	}
}
