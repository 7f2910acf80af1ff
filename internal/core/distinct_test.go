package core

import (
	"runtime"
	"slices"
	"testing"

	"wisedb/internal/cloud"
	"wisedb/internal/dt"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// perSampleBuild is what a build gives when every sample workload is
// searched on its own: each sample's result, the tree fitted to their
// paths, and how many distinct start states the samples have.
type perSampleBuild struct {
	results  []*search.Result
	rows     int
	dump     string
	distinct int
}

// solveEverySample searches each workload under goal with searcher.Solve,
// one search per sample, and fits the tree the way a build does.
func solveEverySample(t *testing.T, env *schedule.Env, goal sla.Goal, ws []*workload.Workload, opts search.Options, tree dt.Config) perSampleBuild {
	t.Helper()
	prob := graph.NewProblem(env, goal)
	searcher, err := search.New(prob)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTrainingSet(prob)
	starts := map[string]bool{}
	var b perSampleBuild
	for _, w := range ws {
		res, err := searcher.Solve(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		b.results = append(b.results, res)
		ts.addActions(w, res.Actions)
		starts[prob.Signature(prob.Start(w))] = true
	}
	b.rows = ts.ds.Len()
	b.dump = (&Model{env: env, Tree: dt.Train(ts.ds, tree)}).Dump()
	b.distinct = len(starts)
	return b
}

// checkAgainstPerSample fails unless m is the per-sample build: same tree,
// rows and (cost, actions) for every sample, and one search per distinct
// start state.
func checkAgainstPerSample(t *testing.T, what string, m *Model, want perSampleBuild) {
	t.Helper()
	if m.Dump() != want.dump || m.TrainingRows != want.rows {
		t.Fatalf("%s: tree of %d rows differs from searching every sample (%d rows)", what, m.TrainingRows, want.rows)
	}
	for i, s := range m.samples {
		r := want.results[i]
		if s.cost != r.Cost || !slices.Equal(s.actions, r.Actions) {
			t.Fatalf("%s: sample %d is (%v, %v), its own search gives (%v, %v)", what, i, s.cost, s.actions, r.Cost, r.Actions)
		}
	}
	if m.searches != want.distinct {
		t.Fatalf("%s: %d searches for %d distinct start states", what, m.searches, want.distinct)
	}
}

// A non-monotonic build searches each distinct start state once and shares
// the result with every sample that drew the same template counts. That
// must be invisible: Train and Tighten give, at every parallelism, exactly
// the model that searching every sample on its own gives, while running one
// search per distinct start.
func TestDistinctSolvesMatchPerSampleSearch(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(2))
	goals := testGoals(env)
	for _, c := range []struct {
		name string
		goal sla.Goal
	}{
		{"average", goals["average"]},
		{"percentile", goals["percentile"]},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultTrainConfig()
			cfg.NumSamples, cfg.SampleSize = 200, 6
			ws := make([]*workload.Workload, cfg.NumSamples)
			for i := range ws {
				ws[i] = workload.NewSampler(env.Templates, deriveSeed(cfg.Seed, i)).Uniform(cfg.SampleSize)
			}
			train := solveEverySample(t, env, c.goal, ws, search.Options{}, cfg.Tree)
			tightGoal := c.goal.Tighten(0.2)
			tight := solveEverySample(t, env, tightGoal, ws, search.Options{}, cfg.Tree)
			if train.distinct >= cfg.NumSamples/2 {
				t.Fatalf("%d distinct start states in %d samples: too few repeats to test", train.distinct, cfg.NumSamples)
			}
			for _, p := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				cfg.Parallelism = p
				m, err := MustNewAdvisor(env, cfg).Train(c.goal)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstPerSample(t, "Train", m, train)
				adapted, err := m.Adapt(tightGoal)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstPerSample(t, "Tighten", adapted, tight)
			}
			t.Logf("%d searches for %d samples", train.distinct, cfg.NumSamples)
		})
	}
}
