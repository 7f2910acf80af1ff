package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"wisedb/internal/core"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Fig18 reproduces Figure 18: online scheduling cost relative to a
// clairvoyant optimal for arrival delays of 0-1 second between queries. The
// paper reports WiSeDB within 10% of the optimal at every arrival rate.
//
// The comparator is the offline exact schedule of the full workload,
// replayed with each query held until its arrival (DESIGN.md §2): a
// clairvoyant scheduler could do no better than its cost.
func (c *Config) Fig18() (*Table, error) {
	s := c.newSetup(c.pick(10, 5), 1)
	size := c.pick(30, 10)
	delays := []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, 750 * time.Millisecond, time.Second}
	t := &Table{
		Title:  fmt.Sprintf("Fig. 18: online scheduling vs optimal (%d queries, %% above optimal)", size),
		Header: []string{"goal", "0s", "0.25s", "0.5s", "0.75s", "1s"},
	}
	for _, g := range s.goals {
		base, err := c.model(s.env, g.goal)
		if err != nil {
			return nil, err
		}
		row := []string{g.name}
		for _, delay := range delays {
			sampler := workload.NewSampler(s.env.Templates, c.Seed+18)
			w := sampler.Uniform(size).WithArrivals(workload.FixedDelayArrivals(size, delay))
			opts := core.DefaultOnlineOptions()
			opts.Retrain = onlineRetrain(c)
			res, err := core.NewOnlineScheduler(base, opts).Run(w)
			if err != nil {
				return nil, err
			}
			opt, err := c.clairvoyantCost(s.env, g.goal, w)
			if err != nil {
				return nil, err
			}
			row = append(row, pct(res.Cost, opt))
		}
		t.AddRow(row...)
	}
	t.Fprint(c.Out)
	return t, nil
}

// onlineRetrain returns the from-scratch training scale used for augmented
// online models.
func onlineRetrain(c *Config) core.TrainConfig {
	cfg := core.DefaultTrainConfig()
	cfg.NumSamples = c.pick(150, 40)
	cfg.SampleSize = c.pick(8, 6)
	cfg.KeepTrainingData = false
	return cfg
}

// clairvoyantCost approximates the best any online scheduler could do: the
// offline exact schedule of the whole workload, planned against a goal
// tightened by the VM start-up delay (so the plan leaves slack for it, as a
// clairvoyant would) and replayed respecting arrival times and the delay
// under the original goal.
func (c *Config) clairvoyantCost(env *schedule.Env, goal sla.Goal, w *workload.Workload) (float64, error) {
	searcher, err := search.New(graph.NewProblem(env, delayAwareGoal(goal, env.VMTypes[0].StartupDelay)))
	if err != nil {
		return 0, err
	}
	res, err := searcher.Solve(w, search.Options{MaxExpansions: c.expansionCap()})
	var sched *schedule.Schedule
	switch {
	case err == nil:
		sched = res.Schedule()
		retagByTemplate(sched, w)
	default:
		return 0, err
	}
	arrival := map[int]time.Duration{}
	for _, q := range w.Queries {
		arrival[q.Tag] = q.Arrival
	}
	cost := 0.0
	var perf []sla.QueryPerf
	for _, vm := range sched.VMs {
		vt := env.VMTypes[vm.TypeID]
		cost += vt.StartupCost
		free := vt.StartupDelay
		for _, q := range vm.Queue {
			lat, ok := env.Latency(q.TemplateID, vm.TypeID)
			if !ok {
				lat = schedule.UnrunnableLatency
			}
			start := free
			if a := arrival[q.Tag]; a > start {
				start = a
			}
			end := start + lat
			free = end
			cost += vt.RunningCost(lat)
			perf = append(perf, sla.QueryPerf{TemplateID: q.TemplateID, Latency: end - arrival[q.Tag]})
		}
	}
	return cost + goal.Penalty(perf), nil
}

// delayAwareGoal tightens a goal's deadlines by the VM start-up delay so
// that an offline plan leaves room for it.
func delayAwareGoal(g sla.Goal, delay time.Duration) sla.Goal {
	switch goal := g.(type) {
	case sla.MaxLatency:
		return goal.Shift(delay)
	case sla.PerQuery:
		return goal.Shift(delay)
	case sla.Average:
		goal.Deadline -= delay
		return goal
	case sla.Percentile:
		goal.Deadline -= delay
		return goal
	default:
		return g
	}
}

// retagByTemplate maps a freshly built schedule's placeholder tags to the
// workload's real tags, matching earliest arrivals to earliest queue
// positions within each template.
func retagByTemplate(s *schedule.Schedule, w *workload.Workload) {
	byTemplate := map[int][]int{}
	for _, q := range w.Queries { // queries sorted by arrival
		byTemplate[q.TemplateID] = append(byTemplate[q.TemplateID], q.Tag)
	}
	for vi := range s.VMs {
		for qi := range s.VMs[vi].Queue {
			tid := s.VMs[vi].Queue[qi].TemplateID
			if tags := byTemplate[tid]; len(tags) > 0 {
				s.VMs[vi].Queue[qi].Tag = tags[0]
				byTemplate[tid] = tags[1:]
			}
		}
	}
}

// Fig19 reproduces Figure 19: the average time a query waits for the
// advisor (model acquisition + tree parsing) during online scheduling,
// under each combination of the §6.3.1 optimizations. Arrivals follow the
// paper's process: inter-arrival gaps drawn from N(1/4s, 1/8s). The paper
// reports Shift+Reuse below one second for shiftable goals, and that both
// optimizations cut overhead dramatically versus retraining every arrival.
func (c *Config) Fig19() (*Table, error) {
	s := c.newSetup(c.pick(6, 4), 1)
	size := c.pick(30, 10)
	t := &Table{
		Title:  fmt.Sprintf("Fig. 19: average online scheduling overhead per arrival (%d queries)", size),
		Header: []string{"goal", "Shift+Reuse", "Shift", "Reuse", "None"},
	}
	variants := []struct {
		name         string
		shift, reuse bool
	}{
		{"Shift+Reuse", true, true},
		{"Shift", true, false},
		{"Reuse", false, true},
		{"None", false, false},
	}
	for _, g := range s.goals {
		base, err := c.model(s.env, g.goal)
		if err != nil {
			return nil, err
		}
		row := []string{g.name}
		for _, v := range variants {
			rng := rand.New(rand.NewSource(c.Seed + 19))
			sampler := workload.NewSampler(s.env.Templates, c.Seed+19)
			w := sampler.Uniform(size).WithArrivals(
				workload.NormalArrivals(size, 250*time.Millisecond, 125*time.Millisecond, rng))
			opts := core.DefaultOnlineOptions()
			opts.Shift = v.shift
			opts.Reuse = v.reuse
			opts.Retrain = onlineRetrain(c)
			res, err := core.NewOnlineScheduler(base, opts).Run(w)
			if err != nil {
				return nil, err
			}
			avg := res.SchedulingTime / time.Duration(len(res.PerArrival))
			row = append(row, avg.Round(time.Microsecond).String())
		}
		t.AddRow(row...)
	}
	t.Note("Shift applies only to linearly shiftable goals (Max, PerQuery); Average and Percent fall back to Reuse behaviour (§6.3.1)")
	t.Fprint(c.Out)
	return t, nil
}
