package core

import (
	"context"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Identity gates at the serving shape — N = 500 samples of m = 12 queries
// over 5 templates and 2 VM types, Max 15 min: the scale at which float
// noise used to pick the "canonical" path. They take tens of seconds, so
// they skip under -short and under the race detector (CI runs them in the
// no-race step beside the allocation pins).

func skipUnlessServingScale(t *testing.T) {
	t.Helper()
	if testing.Short() || raceEnabled {
		t.Skip("serving-scale identity gate: skipped under -short and -race")
	}
}

var servingBase struct {
	once sync.Once
	m    *Model
	err  error
}

// servingBaseModel trains the default serving model once per test binary.
func servingBaseModel(t *testing.T) *Model {
	t.Helper()
	servingBase.once.Do(func() {
		env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
		goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
		servingBase.m, servingBase.err = MustNewAdvisor(env, DefaultTrainConfig()).Train(goal)
	})
	if servingBase.err != nil {
		t.Fatal(servingBase.err)
	}
	return servingBase.m
}

// servingWaits are the 23 ω-map buckets the stream-backlog arrivals reach:
// every multiple of 30 s from 30 s to 11 m 30 s.
func servingWaits() []time.Duration {
	waits := make([]time.Duration, 23)
	for i := range waits {
		waits[i] = time.Duration(i+1) * 30 * time.Second
	}
	return waits
}

// All 23 shifted models of the serving model must be the same model —
// every sample's cost and action path bit for bit, and so the tree —
// however they were built: solved from scratch (the reference: no
// certificate), with the certificate from the base model alone, and in the
// ω-map in the order a stream's arrivals ask for them, each from its
// nearest smaller neighbour. The reference doubles as the replay-vs-Solve
// oracle: every sample a variant certified is compared against a fresh
// solve of that sample.
func TestShiftedModelsIdenticalHoweverBuilt(t *testing.T) {
	skipUnlessServingScale(t)
	base := servingBaseModel(t)
	ctx := context.Background()
	waits := servingWaits()

	// The ω-map variant: streams of the stream-backlog shape (an arrival
	// every 30 s, templates cycling) fill the engine's map through
	// Stream.shiftedModel and nearestShifted, in whatever order their
	// backlogs ask for the waits.
	eng := NewOnlineScheduler(base, DefaultOnlineOptions())
	res := &OnlineResult{}
	for _, cycle := range [][5]int{{0, 1, 2, 3, 4}, {0, 2, 4, 1, 3}, {0, 4, 3, 2, 1}, {0, 3, 1, 4, 2}, {0, 1, 3, 2, 4}, {0, 2, 1, 4, 3}} {
		clock := &SimClock{}
		st := eng.NewStream(clock)
		for i := 0; i < 1000; i++ {
			clock.Advance(time.Duration(i) * 30 * time.Second)
			if err := st.Submit(ctx, workload.Query{TemplateID: cycle[i%5], Tag: i}); err != nil {
				t.Fatal(err)
			}
		}
		r := st.Finish()
		st.Close()
		res.Adaptations += r.Adaptations
		res.AdaptReplayed += r.AdaptReplayed
		res.AdaptSolved += r.AdaptSolved
	}
	inMap := map[time.Duration]*Model{}
	for i := range eng.Registry().Current().derived.shards {
		for k, e := range eng.Registry().Current().derived.shards[i].m {
			inMap[k.wait] = e.m
		}
	}
	if res.AdaptReplayed+res.AdaptSolved != res.Adaptations*len(base.samples) {
		t.Fatalf("stream counted %d replayed + %d solved samples over %d adaptations of %d samples",
			res.AdaptReplayed, res.AdaptSolved, res.Adaptations, len(base.samples))
	}
	if res.AdaptReplayed == 0 {
		t.Fatal("no sample of any ω-map build was replayed")
	}

	replayed := map[string]int{}
	for _, w := range waits {
		goal := base.Goal.Shift(w)
		ref, err := base.adapt(ctx, goal, false, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if ref.WarmSamples != 0 {
			t.Fatalf("ω=%v: the reference replayed %d samples", w, ref.WarmSamples)
		}
		variants := map[string]*Model{"ω-map order": inMap[w]}
		if variants["ω-map order"] == nil {
			t.Fatalf("ω=%v: the stream never built it (have %d entries)", w, len(inMap))
		}
		if variants["certificate only"], err = base.adapt(ctx, goal, false, nil, true); err != nil {
			t.Fatal(err)
		}
		for name, m := range variants {
			replayed[name] += m.WarmSamples
			for i, want := range ref.shifted {
				got := m.shifted[i]
				if got.cost != want.cost || !slices.Equal(got.actions, want.actions) {
					t.Fatalf("ω=%v, %s: sample %d is (%v, %v), a fresh solve gives (%v, %v)",
						w, name, i, got.cost, got.actions, want.cost, want.actions)
				}
			}
			if m.Dump() != ref.Dump() {
				t.Fatalf("ω=%v, %s: tree differs from the reference (%d vs %d nodes)",
					w, name, m.Tree.NumNodes(), ref.Tree.NumNodes())
			}
		}
	}
	if replayed["certificate only"] == 0 {
		t.Fatalf("replayed samples per variant: %v", replayed)
	}
	if replayed["ω-map order"] < replayed["certificate only"] {
		t.Fatalf("nearest neighbours certified fewer samples than the base alone: %v", replayed)
	}
	t.Logf("replayed samples of %d: %v", len(waits)*len(base.samples), replayed)
}

// warmMatchesColdAtServingScale is TestWarmRetrainMatchesCold at the
// serving shape, where warm and cold used to split (N = 500, m ≥ 10 on 5
// templates): over three drift steps, each warm-started from the one
// before, a warm retrain's serving content must equal the cold retrain's.
func warmMatchesColdAtServingScale(t *testing.T, goalName string) {
	skipUnlessServingScale(t)
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	ctx := context.Background()
	goal := testGoals(env)[goalName]
	cfg := DefaultTrainConfig()
	cfg.SampleWeights = []float64{0.3, 0.25, 0.2, 0.15, 0.1}
	cur, err := MustNewAdvisor(env, cfg).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	for step, mix := range [][]float64{
		{0.28, 0.26, 0.2, 0.15, 0.11},
		{0.25, 0.25, 0.22, 0.16, 0.12},
		{0.1, 0.15, 0.2, 0.25, 0.3},
	} {
		next := cfg
		next.SampleWeights = mix
		adv := MustNewAdvisor(env, next)
		cold, err := adv.TrainContext(ctx, goal)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := adv.WarmTrainContext(ctx, goal, cur)
		if err != nil {
			t.Fatal(err)
		}
		if contentHash(t, warm) != contentHash(t, cold) {
			t.Fatalf("step %d: warm retrain (%d replayed) differs from cold: %d vs %d tree nodes",
				step, warm.WarmSamples, warm.Tree.NumNodes(), cold.Tree.NumNodes())
		}
		if step < 2 && warm.WarmSamples == 0 {
			t.Fatalf("step %d: nothing replayed between adjacent mixes", step)
		}
		cur = warm
	}
}

// A tightened model keeps what a kept model needs: each sample's path and
// variates. So it can be tightened again, checkpointed and warm-retrained —
// and each of those equals what the same steps give with nothing replayed.
func TestTightenedModelCarriesItsTrainingData(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	cfg := warmTrainConfig()
	cfg.SampleSize = 8
	cfg.SampleWeights = []float64{0.4, 0.3, 0.2, 0.1}
	ctx := context.Background()
	base, err := MustNewAdvisor(env, cfg).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := base.Tighten(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if tight.WarmSamples == 0 || tight.WarmSamples+tight.ColdSamples != cfg.NumSamples {
		t.Fatalf("Tighten replayed %d and solved %d of %d samples", tight.WarmSamples, tight.ColdSamples, cfg.NumSamples)
	}
	for i, s := range tight.samples {
		if len(s.actions) == 0 || len(s.variates) != cfg.SampleSize {
			t.Fatalf("sample %d of the tightened model lost training data: %d actions, %d variates",
				i, len(s.actions), len(s.variates))
		}
	}
	// Reference: the same chain with every sample re-solved.
	plain, err := base.adapt(ctx, tight.Goal, true, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Dump() != plain.Dump() {
		t.Fatal("Tighten with the certificate differs from Tighten without")
	}
	tighter, err := tight.Tighten(0.5)
	if err != nil {
		t.Fatal(err)
	}
	plainer, err := plain.adapt(ctx, tighter.Goal, true, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := MustNewAdvisor(env, cfg).Train(tighter.Goal)
	if err != nil {
		t.Fatal(err)
	}
	if tighter.Dump() != plainer.Dump() || tighter.Dump() != fresh.Dump() {
		t.Fatal("a second Tighten differs from re-solving or from a fresh train")
	}
	// Warm retrain from the tightened model, through a checkpoint.
	data, err := EncodeModel(tight)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := decodeModel(data, env)
	if err != nil {
		t.Fatal(err)
	}
	next := cfg
	next.SampleWeights = []float64{0.42, 0.28, 0.2, 0.1}
	adv := MustNewAdvisor(env, next)
	warm, err := adv.WarmTrainContext(ctx, tight.Goal, loaded)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := adv.TrainContext(ctx, tight.Goal)
	if err != nil {
		t.Fatal(err)
	}
	if warm.WarmSamples == 0 {
		t.Fatal("a warm retrain from a tightened model replayed nothing")
	}
	if contentHash(t, warm) != contentHash(t, cold) {
		t.Fatal("warm retrain from a tightened model differs from cold")
	}
}

// A restart must not show in anything a restored registry computes. The
// serving model decoded from its checkpoint shifts to the same models as
// the live one, replaying and solving the same samples; and an epoch a
// drift retrain produced, restored the same way, retrains on to the same
// model with the same replayed count. The
// counts are what catch a lost path cost: every replay checks its walk
// against the stored cost, so a restored sample without one solves cold and
// still lands on the same tree.
func TestRestartEquivalenceAtServingShape(t *testing.T) {
	skipUnlessServingScale(t)
	ctx := context.Background()
	restore := func(m *Model) *Model {
		data, err := EncodeModel(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeModel(data)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	live := servingBaseModel(t)
	restored := restore(live)
	for _, wait := range []time.Duration{30 * time.Second, 2 * time.Minute, 9*time.Minute + 30*time.Second} {
		want, err := live.ShiftedModel(wait)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.ShiftedModel(wait)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dump() != want.Dump() {
			t.Fatalf("ω=%v: the restored model shifts to a different tree", wait)
		}
		if got.WarmSamples != want.WarmSamples || got.ColdSamples != want.ColdSamples {
			t.Fatalf("ω=%v: %d replayed / %d solved from the restored model, %d / %d from the live one",
				wait, got.WarmSamples, got.ColdSamples, want.WarmSamples, want.ColdSamples)
		}
	}

	epoch, err := DriftRetrain(ctx, &ModelEpoch{Model: live}, []float64{0.3, 0.25, 0.2, 0.15, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	mix := []float64{0.31, 0.24, 0.21, 0.14, 0.1}
	want, err := DriftRetrain(ctx, &ModelEpoch{Model: epoch}, mix)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DriftRetrain(ctx, &ModelEpoch{Model: restore(epoch)}, mix)
	if err != nil {
		t.Fatal(err)
	}
	if contentHash(t, got) != contentHash(t, want) {
		t.Fatal("a drift retrain from the restored epoch differs from one from the live epoch")
	}
	if got.WarmSamples != want.WarmSamples || want.WarmSamples < len(epoch.samples)/2 {
		t.Fatalf("a drift retrain replayed %d samples from the restored epoch, %d of %d from the live one",
			got.WarmSamples, want.WarmSamples, len(epoch.samples))
	}
}

// A checkpoint written by the float arithmetic the cost grid replaced (the
// store's golden fixture as it was before the grid) holds costs that are
// off the grid. They must be recognised and not trusted: replays of its
// paths are rejected, its cache entries ignored, and
// everything derived from the loaded model equals what a freshly trained
// one gives.
func TestPreGridCheckpointIsNotTrusted(t *testing.T) {
	data, err := os.ReadFile("testdata/model_pregrid.wsdb")
	if err != nil {
		t.Fatal(err)
	}
	old, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	adv := MustNewAdvisor(old.env, old.TrainingConfig)
	fresh, err := adv.Train(old.Goal)
	if err != nil {
		t.Fatal(err)
	}
	if old.Dump() != fresh.Dump() {
		t.Fatal("the fixture is not the model its configuration trains today")
	}
	stale := 0
	for i, s := range old.samples {
		if !slices.Equal(s.actions, fresh.samples[i].actions) {
			t.Fatalf("sample %d: the fixture's path differs from today's", i)
		}
		if s.cost != fresh.samples[i].cost {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("the fixture's costs are all on the grid: it no longer exercises anything")
	}
	if old.searchCache.Len() >= fresh.searchCache.Len() {
		t.Fatalf("%d of %d cache entries survived the import", old.searchCache.Len(), fresh.searchCache.Len())
	}
	tightOld, err := old.Tighten(0.6)
	if err != nil {
		t.Fatal(err)
	}
	tightFresh, err := fresh.Tighten(0.6)
	if err != nil {
		t.Fatal(err)
	}
	if tightOld.Dump() != tightFresh.Dump() {
		t.Fatal("Tighten of the pre-grid checkpoint differs from Tighten of a fresh model")
	}
	for i, s := range tightOld.samples {
		if s.cost != tightFresh.samples[i].cost || !slices.Equal(s.actions, tightFresh.samples[i].actions) {
			t.Fatalf("sample %d: tightened from the checkpoint (%v) and from a fresh model (%v) differ", i, s.cost, tightFresh.samples[i].cost)
		}
	}
	cfg := old.TrainingConfig
	cfg.SampleWeights = []float64{0.5, 0.3, 0.2}
	drift := MustNewAdvisor(old.env, cfg)
	warm, err := drift.WarmTrain(old.Goal, old)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := drift.Train(old.Goal)
	if err != nil {
		t.Fatal(err)
	}
	if contentHash(t, warm) != contentHash(t, cold) {
		t.Fatal("a warm retrain from the pre-grid checkpoint differs from cold")
	}
}

// solvedPath sharing: a replayed sample must hold the looser goal's path
// itself, not a copy (23 ω-map entries would otherwise each keep 500).
func TestReplayedSamplesShareTheirPath(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	base, err := MustNewAdvisor(env, warmTrainConfig()).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := base.ShiftedModel(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.samples != nil || shifted.searchCache != nil {
		t.Fatal("a one-shot shifted model retains samples or a search cache")
	}
	shared := 0
	for i, p := range shifted.shifted {
		if a := base.samples[i].actions; len(p.actions) > 0 && &p.actions[0] == &a[0] {
			shared++
		}
	}
	if shared != shifted.WarmSamples || shared == 0 {
		t.Fatalf("%d replayed samples, %d share the base model's path", shifted.WarmSamples, shared)
	}
}

// Concurrent streams fill one ω-map: each build scans the map for its
// nearest finished neighbour while others are still building theirs. Run
// under -race; whatever neighbour a build found, the model must be the one
// the base model alone gives.
func TestConcurrentShiftedBuildsFromNeighbours(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	cfg := warmTrainConfig()
	cfg.NumSamples = 40
	base, err := MustNewAdvisor(env, cfg).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOnlineOptions()
	opts.WaitResolution = 30 * time.Second
	eng := NewOnlineScheduler(base, opts)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clock := &SimClock{}
			st := eng.NewStream(clock)
			defer st.Close()
			for i := 0; i < 120; i++ {
				clock.Advance(time.Duration(i) * 30 * time.Second)
				if err := st.Submit(ctx, workload.Query{TemplateID: (i*(g+1) + g) % 4, Tag: i}); err != nil {
					t.Error(err)
					return
				}
			}
			st.Finish()
		}(g)
	}
	wg.Wait()
	built, replayed := 0, 0
	for i := range eng.Registry().Current().derived.shards {
		for k, e := range eng.Registry().Current().derived.shards[i].m {
			want, err := base.ShiftedModel(k.wait)
			if err != nil {
				t.Fatal(err)
			}
			if e.m.Dump() != want.Dump() {
				t.Fatalf("ω=%v: the ω-map's model differs from the base model's own shift", k.wait)
			}
			built++
			replayed += e.m.WarmSamples
		}
	}
	if built < 3 || replayed == 0 {
		t.Fatalf("%d shifted models built, %d samples replayed: the streams did not exercise the map", built, replayed)
	}
}
