package core

import (
	"context"
	"math"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// smallAdvisor returns an advisor with a reduced but meaningful training
// scale, fast enough for unit tests.
func smallAdvisor(t *testing.T, numTemplates, numTypes int) *Advisor {
	t.Helper()
	env := schedule.NewEnv(workload.DefaultTemplates(numTemplates), cloud.DefaultVMTypes(numTypes))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 120
	cfg.SampleSize = 8
	return MustNewAdvisor(env, cfg)
}

func testGoals(env *schedule.Env) map[string]sla.Goal {
	return map[string]sla.Goal{
		"max":        sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"perquery":   sla.NewPerQuery(3, env.Templates, sla.DefaultPenaltyRate),
		"average":    sla.NewAverage(10*time.Minute, env.Templates, sla.DefaultPenaltyRate),
		"percentile": sla.NewPercentile(90, 10*time.Minute, env.Templates, sla.DefaultPenaltyRate),
	}
}

// The learned model must schedule workloads near-optimally: the paper
// reports within 8% of optimal across metrics (Fig. 9). With our reduced
// training scale we accept a wider margin but still require closeness.
func TestModelNearOptimal(t *testing.T) {
	adv := smallAdvisor(t, 5, 1)
	for name, goal := range testGoals(adv.Env()) {
		t.Run(name, func(t *testing.T) {
			sampler := workload.NewSampler(adv.Env().Templates, 777)
			model, err := adv.Train(goal)
			if err != nil {
				t.Fatal(err)
			}
			searcher, err := search.New(graph.NewProblem(adv.Env(), goal))
			if err != nil {
				t.Fatal(err)
			}
			totalModel, totalOpt := 0.0, 0.0
			for trial := 0; trial < 5; trial++ {
				w := sampler.Uniform(14)
				sched, err := model.ScheduleBatch(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := sched.Validate(adv.Env(), w); err != nil {
					t.Fatalf("invalid schedule: %v", err)
				}
				opt, err := searcher.Solve(w, search.Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := sched.Cost(adv.Env(), goal)
				if got < opt.Cost-1e-6 {
					t.Fatalf("model beat the optimum: %f < %f", got, opt.Cost)
				}
				totalModel += got
				totalOpt += opt.Cost
			}
			ratio := totalModel / totalOpt
			t.Logf("model/optimal cost ratio: %.3f", ratio)
			if ratio > 1.35 {
				t.Fatalf("model is %.1f%% above optimal; want < 35%%", (ratio-1)*100)
			}
		})
	}
}

// Scheduling a large batch must be fast and linear-ish (§7.4: 30K queries
// in under 1.5s; the complexity is O(h·n)).
func TestBatchSchedulingScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	adv := smallAdvisor(t, 5, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	model, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	sampler := workload.NewSampler(adv.Env().Templates, 5)
	w := sampler.Uniform(30000)
	start := time.Now()
	sched, err := model.ScheduleBatch(w)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if err := sched.Validate(adv.Env(), w); err != nil {
		t.Fatal(err)
	}
	t.Logf("scheduled 30000 queries in %s across %d VMs", elapsed, len(sched.VMs))
	if elapsed > 10*time.Second {
		t.Fatalf("batch scheduling too slow: %s", elapsed)
	}
}

// Adaptive modeling must be cheaper than fresh training and produce a model
// bound to the tightened goal.
func TestAdaptFasterThanFresh(t *testing.T) {
	adv := smallAdvisor(t, 5, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	base, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := base.Tighten(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if adapted.Goal.(sla.MaxLatency).Deadline >= goal.Deadline {
		t.Fatal("tightened goal should have a smaller deadline")
	}
	fresh, err := adv.Train(adapted.Goal)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("adapt=%s fresh=%s", adapted.TrainingTime, fresh.TrainingTime)
	// At this tiny training scale both are a few milliseconds and subject
	// to scheduler noise; adaptive re-training must at least not be
	// substantially slower. The Fig. 16 harness measures the real
	// speedup at experiment scale.
	if adapted.TrainingTime > 2*fresh.TrainingTime+10*time.Millisecond {
		t.Errorf("adaptive re-training (%s) much slower than fresh training (%s)", adapted.TrainingTime, fresh.TrainingTime)
	}
	// The adapted model must still schedule correctly.
	w := workload.NewSampler(adv.Env().Templates, 2).Uniform(10)
	sched, err := adapted.ScheduleBatch(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(adv.Env(), w); err != nil {
		t.Fatal(err)
	}
}

// Adapt must refuse models without retained training data.
func TestAdaptRequiresTrainingData(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(1))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 20
	cfg.SampleSize = 5
	cfg.KeepTrainingData = false
	adv := MustNewAdvisor(env, cfg)
	m, err := adv.Train(sla.NewMaxLatency(15*time.Minute, env.Templates, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tighten(0.2); err == nil {
		t.Fatal("want error adapting a model without training data")
	}
}

// Adapt's replay certificate assumes the new goal is at least as strict as
// the model's. Under Max and PerQuery a later deadline or
// a lower penalty rate must be refused, as Tighten(p < 0) is: unchecked,
// every sample replayed its old path and the model cost more than a fresh
// Train's. An equal goal still adapts (every sample replays), and Average,
// which re-solves exactly, still adapts to a looser goal.
func TestAdaptRejectsLooserGoal(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(2))
	cfg := warmTrainConfig()
	cfg.NumSamples = 24
	goals := testGoals(env)
	halfRate := sla.DefaultPenaltyRate / 2
	for name, looser := range map[string][]sla.Goal{
		"max":      {goals["max"].Shift(-time.Minute), sla.NewMaxLatency(15*time.Minute, env.Templates, halfRate)},
		"perquery": {goals["perquery"].Shift(-time.Minute), sla.NewPerQuery(3, env.Templates, halfRate)},
	} {
		t.Run(name, func(t *testing.T) {
			m, err := MustNewAdvisor(env, cfg).Train(goals[name])
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range looser {
				if _, err := m.Adapt(g); err == nil {
					t.Errorf("Adapt to the looser %s succeeded", g.Key())
				}
			}
			if _, err := m.ShiftedModel(-time.Minute); err == nil {
				t.Error("ShiftedModel(-1m) succeeded")
			}
			same, err := m.Adapt(goals[name])
			if err != nil {
				t.Fatal(err)
			}
			if same.Dump() != m.Dump() || same.WarmSamples != cfg.NumSamples {
				t.Fatalf("Adapt to the model's own goal replayed %d of %d samples; same tree: %v",
					same.WarmSamples, cfg.NumSamples, same.Dump() == m.Dump())
			}
		})
	}
	avg, err := MustNewAdvisor(env, cfg).Train(goals["average"])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := avg.Adapt(goals["average"].Tighten(-0.3)); err != nil {
		t.Fatalf("Adapt to a looser Average goal: %v", err)
	}
}

// Strategy recommendation must return k strategies ordered loosest to
// strictest, with cost estimates that increase with workload size.
func TestRecommend(t *testing.T) {
	adv := smallAdvisor(t, 4, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	cfg := DefaultRecommendConfig()
	cfg.K = 3
	cfg.CandidateCount = 5
	cfg.ProfileWorkloadSize = 60
	strategies, err := adv.Recommend(goal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(strategies) != 3 {
		t.Fatalf("want 3 strategies, got %d", len(strategies))
	}
	prevDeadline := time.Duration(math.MaxInt64)
	for i, s := range strategies {
		d := s.Model.Goal.(sla.MaxLatency).Deadline
		if d > prevDeadline {
			t.Fatalf("strategy %d looser than its predecessor", i)
		}
		prevDeadline = d
		small := s.EstimateCost([]int{1, 1, 1, 1})
		large := s.EstimateCost([]int{10, 10, 10, 10})
		if small <= 0 || large <= small {
			t.Fatalf("strategy %d: cost estimates not increasing: %f, %f", i, small, large)
		}
	}
}

// Online scheduling must execute every query exactly once, with correct
// accounting, under every optimization combination.
func TestOnlineSchedulesEveryQuery(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	goal := sla.NewPerQuery(3, adv.Env().Templates, sla.DefaultPenaltyRate)
	base, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	sampler := workload.NewSampler(adv.Env().Templates, 21)
	w := sampler.Uniform(12)
	arrivals := workload.FixedDelayArrivals(12, 20*time.Second)
	w = w.WithArrivals(arrivals)
	for _, opt := range []struct {
		name         string
		reuse, shift bool
	}{
		{"none", false, false},
		{"reuse", true, false},
		{"shift", false, true},
		{"shift+reuse", true, true},
	} {
		t.Run(opt.name, func(t *testing.T) {
			opts := DefaultOnlineOptions()
			opts.Reuse = opt.reuse
			opts.Shift = opt.shift
			opts.Retrain.NumSamples = 30
			opts.Retrain.SampleSize = 6
			sched := NewOnlineScheduler(base, opts)
			res, err := sched.Run(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(12); err != nil {
				t.Fatal(err)
			}
			if res.Cost <= 0 {
				t.Fatalf("cost must be positive, got %f", res.Cost)
			}
			if res.VMsRented == 0 {
				t.Fatal("no VMs rented")
			}
			t.Logf("%s: cost=%.2f¢ rented=%d retrain=%d adapt=%d hits=%d overhead=%s",
				opt.name, res.Cost, res.VMsRented, res.Retrainings, res.Adaptations, res.CacheHits, res.SchedulingTime)
		})
	}
}

// The Shift optimization must avoid from-scratch retraining entirely for
// shiftable goals.
func TestOnlineShiftAvoidsRetraining(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	base, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	sampler := workload.NewSampler(adv.Env().Templates, 31)
	w := sampler.Uniform(15).WithArrivals(workload.FixedDelayArrivals(15, 10*time.Second))

	opts := DefaultOnlineOptions()
	opts.Shift = true
	opts.Reuse = true
	res, err := NewOnlineScheduler(base, opts).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retrainings != 0 {
		t.Fatalf("shift enabled: want 0 from-scratch retrainings, got %d", res.Retrainings)
	}
	if res.Adaptations == 0 {
		t.Fatal("10s gaps with minute-long queries must require shifted models")
	}
}

// The ω-map (§6.3.1) must return cached models when the same wait pattern
// recurs, both for shifted and for augmented-template models.
func TestOnlineModelReuseCache(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	maxGoal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	base, err := adv.Train(maxGoal)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOnlineOptions()
	opts.Retrain.NumSamples = 20
	opts.Retrain.SampleSize = 5
	o := NewOnlineScheduler(base, opts)
	s := o.NewStream(&SimClock{})
	epoch := o.Registry().Current()
	ctx := context.Background()
	m1, err := s.shiftedModel(ctx, epoch, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.shiftedModel(ctx, epoch, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatal("identical wait buckets must reuse the shifted model")
	}
	if s.res.CacheHits != 1 || s.res.Adaptations != 1 {
		t.Fatalf("want 1 adaptation + 1 hit, got %d/%d", s.res.Adaptations, s.res.CacheHits)
	}

	// A second stream of the same engine acquiring the same key must not
	// rebuild the model (shared ω-map, one build), while its own counters
	// record a first acquisition.
	s2 := o.NewStream(&SimClock{})
	m3, err := s2.shiftedModel(ctx, epoch, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m3 != m1 {
		t.Fatal("streams of one engine must share the ω-map")
	}
	if s2.res.Adaptations != 1 || s2.res.CacheHits != 0 {
		t.Fatalf("second stream: want 1 adaptation + 0 hits, got %d/%d", s2.res.Adaptations, s2.res.CacheHits)
	}
	if got := o.CacheStats(); got != 1 {
		t.Fatalf("engine built %d shifted models, want 1 (duplicate suppression)", got)
	}

	// Augmented-model cache: same (template, wait) pattern on a
	// non-shiftable goal must hit the ω-map.
	avgAdv := smallAdvisor(t, 3, 1)
	avgGoal := sla.NewAverage(10*time.Minute, avgAdv.Env().Templates, sla.DefaultPenaltyRate)
	avgBase, err := avgAdv.Train(avgGoal)
	if err != nil {
		t.Fatal(err)
	}
	oa := NewOnlineScheduler(avgBase, opts)
	sa := oa.NewStream(&SimClock{})
	sa.ensureTag(0)
	sa.tags[0] = tagState{arrival: 0, template: 1}
	aEpoch := oa.Registry().Current()
	if _, err := sa.scheduleAugmented(ctx, aEpoch, 30*time.Second, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.scheduleAugmented(ctx, aEpoch, 30*time.Second, []int{0}); err != nil {
		t.Fatal(err)
	}
	if sa.res.Retrainings != 1 || sa.res.CacheHits != 1 {
		t.Fatalf("want 1 retraining + 1 hit, got %d/%d", sa.res.Retrainings, sa.res.CacheHits)
	}
}

// A batch arriving all at once through the online path must cost the same
// as the batch scheduler run directly (single event, no waits).
func TestOnlineDegeneratesToBatch(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	base, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	sampler := workload.NewSampler(adv.Env().Templates, 41)
	w := sampler.Uniform(10) // all arrivals zero
	res, err := NewOnlineScheduler(base, DefaultOnlineOptions()).Run(w)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := base.ScheduleBatch(w)
	if err != nil {
		t.Fatal(err)
	}
	// The simulator adds VM start-up delay to query latencies, so costs
	// differ by at most the extra penalty from that delay; provisioning
	// must match exactly.
	wantProv := sched.ProvisioningCost(adv.Env())
	gotProv := res.Cost - res.Penalty
	if math.Abs(wantProv-gotProv) > 1e-6 {
		t.Fatalf("provisioning: batch %.6f, online %.6f", wantProv, gotProv)
	}
}

// Model dumps must render every action name.
func TestModelDump(t *testing.T) {
	adv := smallAdvisor(t, 3, 2)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	dump := m.Dump()
	if dump == "" {
		t.Fatal("empty dump")
	}
	t.Logf("model height=%d nodes=%d\n%s", m.Tree.Height(), m.Tree.NumNodes(), dump)
}
