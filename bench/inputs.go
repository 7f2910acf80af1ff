package main

import (
	"fmt"
	"math/rand"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// defaultSeed is the seed every committed number was taken with unless it
// says otherwise; heldOutSeed is reserved for confirming later claims on
// inputs no change was tuned against.
const (
	defaultSeed = 1
	heldOutSeed = 20160905
)

const numTemplates = 5

// sizes are the fixed-work constants of the five workloads. Rounds are never
// adapted at run time; the committed numbers use fullSizes, the tests under
// bench/ use tinySizes.
type sizes struct {
	// serving is the training configuration of every serving model
	// (wire-steady, stream-*, retrain-steady's base epoch); trainAdapt is
	// train-adapt's, whose per-goal sample sizes are in trainGoals.
	serving, trainAdapt core.TrainConfig
	trainGoalSize       [4]int // m for max, perquery, average, percentile

	wireConns, wireArrivals int           // connections per round, arrivals per connection
	wireWindow              int           // Submit frames in flight
	streamArrivals          int           // arrivals per stream of stream-backlog/-degraded
	backlogPasses           int           // a round of stream-backlog is this many passes over the 120 rotated template cycles
	degradedPasses          int           // a round of stream-degraded is this many passes over the 24 template cycles
	retrainOps              int           // RetrainNow+Wait pairs per round of retrain-steady
	evalQueries             int           // evaluation workload of train-adapt and retrain-steady
	coldRetrains            int           // ColdDriftRetrain calls of the retrain-steady trace
	warmUp                  time.Duration // untimed rounds before the timed ones
	tracedRounds            int
	// quick runs one set-up and no minimum number of rounds, whatever the
	// workload asks for.
	quick bool
}

func fullSizes() sizes {
	serving := core.DefaultTrainConfig() // N=500, m=12, KeepTrainingData
	trainAdapt := core.DefaultTrainConfig()
	trainAdapt.NumSamples = 250
	return sizes{
		serving:        serving,
		trainAdapt:     trainAdapt,
		trainGoalSize:  [4]int{12, 12, 9, 10},
		wireConns:      3,
		wireArrivals:   50000,
		wireWindow:     64,
		streamArrivals: 1000,
		backlogPasses:  2,
		degradedPasses: 1,
		retrainOps:     16,
		evalQueries:    2000,
		coldRetrains:   3,
		warmUp:         1500 * time.Millisecond,
		tracedRounds:   3,
	}
}

// tinySizes shrinks every workload to a smoke test: the same code paths and
// the same correctness gate, a few milliseconds of work each.
func tinySizes() sizes {
	cfg := core.DefaultTrainConfig()
	cfg.NumSamples, cfg.SampleSize = 60, 7
	return sizes{
		serving:        cfg,
		trainAdapt:     cfg,
		trainGoalSize:  [4]int{7, 7, 6, 6},
		wireConns:      1,
		wireArrivals:   300,
		wireWindow:     64,
		streamArrivals: 120,
		backlogPasses:  1,
		degradedPasses: 1,
		retrainOps:     3,
		evalQueries:    100,
		coldRetrains:   1,
		tracedRounds:   1,
		quick:          true,
	}
}

// inputs is everything a workload is given. The program under test sees
// only these generated values, never the seed.
type inputs struct {
	seed      int64
	sz        sizes
	templates []workload.Template
	env       *schedule.Env
	goal      sla.Goal // the serving goal: no query later than 15 minutes
}

func newInputs(seed int64, sz sizes) *inputs {
	templates := workload.DefaultTemplates(numTemplates)
	return &inputs{
		seed:      seed,
		sz:        sz,
		templates: templates,
		env:       schedule.NewEnv(templates, cloud.DefaultVMTypes(2)),
		goal:      sla.NewMaxLatency(15*time.Minute, templates, sla.DefaultPenaltyRate),
	}
}

// rng returns the generator of one named input, so that adding an input
// never changes the others.
func (in *inputs) rng(purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(in.seed*1000003 + purpose))
}

// cycle is the template order one stream or connection repeats: arrival i
// carries template cycle[i%5]. Cycling keeps every 48-arrival drift window
// on the uniform training mix, so no workload ever triggers a retrain.
type cycle [numTemplates]int

// allCycles returns the 24 distinct cyclic orders of five templates (every
// permutation that starts with template 0; the other 96 are rotations).
func allCycles() []cycle {
	var out []cycle
	var rec func(c cycle, n int, used uint)
	rec = func(c cycle, n int, used uint) {
		if n == numTemplates {
			out = append(out, c)
			return
		}
		for t := 1; t < numTemplates; t++ {
			if used&(1<<t) == 0 {
				c[n] = t
				rec(c, n+1, used|1<<t)
			}
		}
	}
	rec(cycle{}, 1, 1)
	return out
}

func (c cycle) rotate(r int) cycle {
	var out cycle
	for i := range out {
		out[i] = c[(i+r)%numTemplates]
	}
	return out
}

// cycles returns the template cycles of one round: passes shuffled passes
// over the 24 cyclic orders — at each of their five rotations when
// rotations is set (120 streams a pass), at rotation 0 otherwise. The seed
// only decides the order: every round of every seed replays each cyclic
// order equally often, which keeps cost and work per round the same from
// seed to seed (single orders differ by 30 % in cost per query and by six
// ω-map entries, single rotations by 2 % in the degraded path's cost).
func (in *inputs) cycles(passes int, rotations bool) []cycle {
	rng := in.rng(1)
	var base []cycle
	for _, c := range allCycles() {
		base = append(base, c)
		for r := 1; rotations && r < numTemplates; r++ {
			base = append(base, c.rotate(r))
		}
	}
	out := make([]cycle, 0, passes*len(base))
	for p := 0; p < passes; p++ {
		for _, i := range rng.Perm(len(base)) {
			out = append(out, base[i])
		}
	}
	return out
}

// evalWorkload returns n queries, the same number of each template, in
// seeded order: the batch train-adapt and retrain-steady price their models
// on.
func (in *inputs) evalWorkload(n int) *workload.Workload {
	rng := in.rng(2)
	queries := make([]workload.Query, n)
	for i, j := range rng.Perm(n) {
		queries[i] = workload.Query{TemplateID: j % numTemplates, Tag: i}
	}
	return &workload.Workload{Templates: in.templates, Queries: queries}
}

// retrainCentre is the arrival mix retrain-steady's base epoch is trained
// for and its mixes walk around.
var retrainCentre = []float64{0.30, 0.25, 0.20, 0.15, 0.10}

// mixWalk returns n distinct arrival mixes, normalise(centre + 0.02·u_i),
// where u walks inside [-1,1]^5 in steps of ±0.25 per coordinate with
// seeded signs, reflecting at the walls. Equal step lengths keep the share
// of training samples each retrain can replay nearly the same for every
// seed; distinct mixes keep every retrain out of the engine's share memo.
func (in *inputs) mixWalk(n int) ([][]float64, error) {
	rng := in.rng(3)
	u := make([]float64, numTemplates)
	seen := map[string]bool{}
	out := make([][]float64, 0, n)
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 100*n {
			return nil, fmt.Errorf("mix walk: cannot find %d distinct mixes", n)
		}
		for j := range u {
			step := 0.25
			if rng.Intn(2) == 0 {
				step = -step
			}
			if u[j]+step > 1 || u[j]+step < -1 {
				step = -step
			}
			u[j] += step
		}
		mix := make([]float64, numTemplates)
		total := 0.0
		for j := range mix {
			mix[j] = retrainCentre[j] + 0.02*u[j]
			total += mix[j]
		}
		for j := range mix {
			mix[j] /= total
		}
		key := fmt.Sprint(mix)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, mix)
	}
	return out, nil
}
