package core

import (
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

var update = flag.Bool("update", false, "regenerate testdata/build_fingerprints.txt")

const buildFingerprintsFile = "testdata/build_fingerprints.txt"

// fingerprint is one line of the build golden: everything a build decides —
// the tree, its rows, the cache traffic, how samples were answered, and the
// checkpoint bytes. The wall time and the worker count are zeroed for the
// encode; nothing else a build records may differ between machines or runs.
func fingerprint(t *testing.T, name string, m *Model, err error) string {
	t.Helper()
	if err != nil {
		return fmt.Sprintf("%s error=%q", name, err)
	}
	took, p := m.TrainingTime, m.TrainingConfig.Parallelism
	m.TrainingTime, m.TrainingConfig.Parallelism = 0, 0
	data, encErr := EncodeModel(m)
	m.TrainingTime, m.TrainingConfig.Parallelism = took, p
	if encErr != nil {
		t.Fatal(encErr)
	}
	dump, enc := fnv.New64a(), fnv.New64a()
	dump.Write([]byte(m.Dump()))
	enc.Write(data)
	return fmt.Sprintf("%s dump=%016x rows=%d hits=%d misses=%d warm=%d cold=%d searches=%d enc=%016x",
		name, dump.Sum64(), m.TrainingRows, m.TrainingCacheHits, m.TrainingCacheMisses,
		m.WarmSamples, m.ColdSamples, m.searches, enc.Sum64())
}

// buildFingerprints runs every way a model is built — train, two tightens,
// a shift and a shift from that nearer neighbour, a warm retrain from a
// trained, a checkpointed and a tightened model, and a recommendation chain —
// for each goal family at one worker count.
func buildFingerprints(t *testing.T, p int) []string {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	ctx := context.Background()
	cfg := warmTrainConfig()
	cfg.Parallelism = p
	cfg.SampleWeights = []float64{0.4, 0.3, 0.2, 0.1}
	drift := cfg
	drift.SampleWeights = []float64{0.42, 0.28, 0.2, 0.1}
	drifted := MustNewAdvisor(env, drift)
	drift.SampleWeights = []float64{0.44, 0.27, 0.19, 0.1}
	driftedAgain := MustNewAdvisor(env, drift)
	rc := DefaultRecommendConfig()
	rc.K, rc.CandidateCount, rc.ProfileWorkloadSize = 2, 3, 60
	var lines []string
	for _, family := range []string{"max", "perquery", "average", "percentile"} {
		goal := testGoals(env)[family]
		add := func(op string, m *Model, err error) {
			lines = append(lines, fingerprint(t, family+" "+op, m, err))
		}
		base, err := MustNewAdvisor(env, cfg).TrainContext(ctx, goal)
		if err != nil {
			t.Fatal(err)
		}
		add("train", base, nil)
		tight, err := base.Tighten(0.2)
		add("tighten", tight, err)
		tighter, err := tight.Tighten(0.3)
		add("tighten2", tighter, err)
		near, err := base.ShiftedModelContext(ctx, time.Minute)
		add("shift", near, err)
		if err == nil {
			far, err := base.shiftedFrom(ctx, 3*time.Minute, near)
			add("shift-from-near", far, err)
		} else {
			add("shift-from-near", nil, err)
		}
		warm, err := drifted.WarmTrainContext(ctx, goal, base)
		add("warm", warm, err)
		data, err := EncodeModel(warm)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := decodeModel(data, env)
		if err != nil {
			t.Fatal(err)
		}
		restarted, err := driftedAgain.WarmTrainContext(ctx, goal, loaded)
		add("warm-from-checkpoint", restarted, err)
		fromTight, err := drifted.WarmTrainContext(ctx, tight.Goal, tight)
		add("warm-from-tightened", fromTight, err)
		strategies, err := MustNewAdvisor(env, cfg).RecommendContext(ctx, goal, rc)
		if err != nil {
			t.Fatal(err)
		}
		var tiers []string
		for i, s := range strategies {
			tiers = append(tiers, fingerprint(t, fmt.Sprint(i), s.Model, nil))
		}
		lines = append(lines, family+" recommend "+strings.Join(tiers, " | "))
	}
	return lines
}

// Every way a model is built gives, at every worker count, exactly the
// models the committed golden records. Regenerate with -update only when a
// change is meant to move a model, and say why.
func TestBuildFingerprints(t *testing.T) {
	skipUnlessServingScale(t)
	if *update {
		got := strings.Join(buildFingerprints(t, 1), "\n") + "\n"
		if err := os.WriteFile(buildFingerprintsFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(buildFingerprintsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	for _, p := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got := buildFingerprints(t, p)
		if len(got) != len(want) {
			t.Fatalf("P=%d: %d fingerprints, golden has %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("P=%d: fingerprint %d\n got %s\nwant %s", p, i, got[i], want[i])
			}
		}
	}
}

// pathRows is what the fold took from a result's Path before it walked
// actions: each step's vertex recounted and extracted, labeled with the
// step's action.
func pathRows(prob *graph.Problem, path []search.Step) ([][]float64, []int) {
	fs := features.NewState(prob)
	k := fs.NumTemplates()
	var x [][]float64
	var y []int
	for _, step := range path {
		fs.Reset(step.State)
		x = append(x, fs.AppendTo(nil, step.State))
		y = append(y, step.Action.Label(k))
	}
	return x, y
}

// The fold walks each answer's actions on one state instead of reading a
// Path of heap states. Its rows must be, bit for bit, the rows the Path
// gives — Replay's for a monotonic goal, Solve's otherwise — for every goal
// family, including decisions taken after the schedule has accrued
// penalty: each family is also run with a penalty rate low enough that
// optimal schedules pay it.
func TestActionWalkRowsMatchPath(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	const cheap = sla.DefaultPenaltyRate / 200
	penalising := map[string]sla.Goal{
		"max":        sla.NewMaxLatency(5*time.Minute, env.Templates, cheap),
		"perquery":   sla.NewPerQuery(1, env.Templates, cheap/10),
		"average":    sla.NewAverage(4*time.Minute, env.Templates, cheap),
		"percentile": sla.NewPercentile(50, 4*time.Minute, env.Templates, cheap),
	}
	for name, loose := range testGoals(env) {
		for v, goal := range []sla.Goal{loose, penalising[name]} {
			variant := name + [2]string{"", " at a cheap penalty"}[v]
			prob := graph.NewProblem(env, goal)
			s, err := search.New(prob)
			if err != nil {
				t.Fatal(err)
			}
			ts := newTrainingSet(prob)
			penalised := 0
			for i := 0; i < 40; i++ {
				what := fmt.Sprintf("%s, sample %d", variant, i)
				w := workload.NewSampler(env.Templates, deriveSeed(3, i)).Uniform(4 + i%5)
				res, err := s.Solve(w, search.Options{})
				if err != nil {
					t.Fatal(err)
				}
				path := res.Path
				if goal.Monotonic() {
					replayed, err := s.Replay(w, res.Actions, res.Cost, nil)
					if err != nil {
						t.Fatal(err)
					}
					path = replayed.Path
				}
				wantX, wantY := pathRows(prob, path)
				ts.addActions(w, res.Actions)
				if !slices.Equal(ts.y, wantY) || len(ts.x) != len(wantX) {
					t.Fatalf("%s: labels %v from the walk, %v from the path", what, ts.y, wantY)
				}
				for j, row := range wantX {
					for f, v := range row {
						if math.Float64bits(ts.x[j][f]) != math.Float64bits(v) {
							t.Fatalf("%s, row %d: the walk reads %v, the path %v", what, j, ts.x[j], row)
						}
					}
				}
				for _, step := range path {
					if step.State.Acc.Penalty() != 0 {
						penalised++
					}
				}
			}
			if v == 1 && penalised == 0 {
				t.Fatalf("%s: no decision follows accrued penalty", variant)
			}
			t.Logf("%s: %d decisions follow accrued penalty", variant, penalised)
		}
	}
}
