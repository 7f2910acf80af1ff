package core

import (
	"fmt"
	"math"

	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/workload"
)

// ScheduleBatch produces a complete schedule for a batch workload by
// repeatedly parsing the decision tree (§4.5's worked example, §6.2): at
// each step the model maps the current vertex's features to an action,
// which is applied to reach the next vertex, until every query is assigned.
//
// A learned tree can emit an action that is invalid at the current vertex
// (e.g. new-VM while the open VM is empty, or assign-X with no X
// unassigned). These are repaired deterministically toward the behavior the
// tree approximates: an invalid placement falls back to the cheapest valid
// placement edge, and an invalid start-up becomes the cheapest placement
// (or vice versa when nothing is placeable). Repairs guarantee progress, so
// scheduling terminates after at most 2n+1 steps (§7.4's complexity
// argument: the tree is parsed at most 2n times, O(h) per parse).
//
// The loop is the compiled serving hot path: per-call scratch (walked
// state, penalty tracker, feature buffer, action and retag buffers) comes
// from a pool on the model, features are maintained incrementally (O(k) per
// step instead of O(queue+k)), inference runs on the flat compiled tree,
// and the state advances in place — so a schedule of n queries costs O(n·k)
// time and O(1) amortized allocations per query, at any number of
// concurrent callers.
//
// The walk depends only on the batch's per-template counts, so the model
// memoizes it for batches of at most TrainingConfig.SampleSize queries
// (see decisionMemo): a repeated composition costs O(n), replaying the
// stored actions with no features and no tree walk.
func (m *Model) ScheduleBatch(w *workload.Workload) (*schedule.Schedule, error) {
	sched, _, err := m.scheduleBatchInto(w, nil, nil, 1)
	return sched, err
}

// scheduleBatchInto is ScheduleBatch writing into caller-owned storage: dst
// (the schedule skeleton) and backing (the array shared by every VM queue)
// are recycled when their capacity suffices, so a caller that consumes each
// schedule before requesting the next — the online stream core does, it
// maps the schedule onto simulator VMs immediately — pays zero steady-state
// allocations per call. Nil dst/backing allocate fresh storage, which is
// exactly ScheduleBatch. The returned backing must be passed back in on the
// next call.
//
// priceMult is the VM price multiplier in effect at the event being
// scheduled (cloud.PriceSchedule.At of the arrival instant; 1 for flat
// prices). It scales the monetary side of the dominated-placement guard —
// start-up and processing fees — while SLA penalty deltas stay unscaled, so
// the fresh-VM comparison stays coherent with what Sim's lease accounting
// will actually charge. At 1 the guard arithmetic is bit-identical to the
// unpriced path.
func (m *Model) scheduleBatchInto(w *workload.Workload, dst *schedule.Schedule, backing []schedule.Placed, priceMult float64) (*schedule.Schedule, []schedule.Placed, error) {
	k := len(m.env.Templates)
	if len(w.Templates) != k {
		return nil, backing, fmt.Errorf("core: workload has %d templates, model expects %d", len(w.Templates), k)
	}
	for _, q := range w.Queries {
		if q.TemplateID < 0 || q.TemplateID >= k {
			return nil, backing, fmt.Errorf("core: query tag %d references unknown template %d", q.Tag, q.TemplateID)
		}
	}
	sc := m.getScratch()
	defer m.putScratch(sc)
	sc.countTemplates(w, k)
	// Only batches of at most m queries, the size the tree was trained
	// on, are memoized: at most C(m+k, k) keys per price multiplier.
	memoize := len(w.Queries) <= min(m.TrainingConfig.SampleSize, memoMaxBatch) && k+len(m.env.VMTypes) <= math.MaxUint16+1
	hit := false
	if memoize {
		sc.key = memoKey(sc.key[:0], sc.state.Unassigned, priceMult)
		var labels string
		if labels, hit = m.memo.lookup(sc.key); hit {
			sc.actions = sc.actions[:0]
			for i := 0; i < len(labels); i += 2 {
				sc.actions = append(sc.actions, graph.ActionFromLabel(int(labels[i])|int(labels[i+1])<<8, k))
			}
		}
	}
	if !hit {
		if err := m.walk(sc, len(w.Queries), priceMult); err != nil {
			return nil, backing, err
		}
		if memoize {
			m.memo.store(sc.key, sc.actions, k)
		}
	}
	sched, backing := graph.BuildScheduleInto(dst, backing, sc.actions)
	sc.retag(sched, w)
	return sched, backing, nil
}

// walk runs the decision tree from the start vertex whose unassigned counts
// sc holds (n queries in all) to a goal vertex, leaving the action path in
// sc.actions.
func (m *Model) walk(sc *servingScratch, n int, priceMult float64) error {
	tables := m.servingTables()
	k := len(m.env.Templates)
	sc.resetState()
	state := &sc.state
	maxSteps := 2*n + 1
	for steps := 0; !state.IsGoal(); steps++ {
		if steps > maxSteps {
			return fmt.Errorf("core: scheduler failed to make progress after %d steps", steps)
		}
		sc.feat = sc.fs.AppendTo(sc.feat[:0], state)
		act := graph.ActionFromLabel(tables.compiled.Predict(sc.feat), k)
		act = m.repair(state, act)
		if act.Kind == graph.Place && state.CanStartup() && len(state.OpenQueue) > 0 {
			// The feature vector already holds act's Eq. 2 placement
			// cost (cost-of-X is bit-identical to PlacementCost);
			// recompute only if the feature was clamped at Infinite.
			cur := sc.feat[1+features.PerTemplate*act.Template+2]
			if cur >= features.Infinite {
				cur, _ = m.prob.PlacementCost(state, act.Template)
			}
			if priceMult != 1 {
				// Re-price the open-VM placement: PlacementCost is
				// f_r·l + penalty delta, and only the f_r component
				// scales with the spot multiplier.
				lat, _ := m.env.Latency(act.Template, state.OpenType)
				cur += (priceMult - 1) * m.env.VMTypes[state.OpenType].RunningCost(lat)
			}
			act = m.guardWithCost(state, act, cur, priceMult)
		}
		m.prob.ApplyInPlace(state, act)
		sc.fs.Apply(act)
		sc.actions = append(sc.actions, act)
	}
	return nil
}

// repair coerces a predicted action into a valid one. Valid predictions
// pass through untouched.
func (m *Model) repair(s *graph.State, act graph.Action) graph.Action {
	switch act.Kind {
	case graph.Place:
		if m.prob.CanPlace(s, act.Template) {
			return act
		}
	case graph.Startup:
		if s.CanStartup() && act.VMType >= 0 && act.VMType < len(m.env.VMTypes) && m.typeUsable(s, act.VMType) {
			return act
		}
	}
	// Prefer the cheapest valid placement edge: it mirrors the greedy
	// behavior the tree approximates and always makes progress.
	if t, ok := m.cheapestPlacement(s); ok {
		return graph.Action{Kind: graph.Place, Template: t}
	}
	// Nothing placeable: rent the VM type that can serve an unassigned
	// query most cheaply.
	if vt, ok := m.bestStartupType(s); ok {
		return graph.Action{Kind: graph.Startup, VMType: vt}
	}
	// Unreachable for schedulable workloads: every template runs on some
	// VM type (checked at training time).
	panic("core: no valid action available")
}

// guardWithCost overrides a placement that is strictly dominated by renting
// a fresh VM for the same query. For every supported goal, placing a query
// on an empty VM yields a completion time — and hence a penalty delta — no
// larger than placing it behind queued work, so whenever
//
//	cost(place on open VM) > min over types [f_s + f_r·l + fresh penalty delta]
//
// the tree's choice cannot be part of any rational schedule and is replaced
// by the corresponding start-up action. This breaks the "absorbing leaf"
// failure mode where a rare misprediction keeps piling queries onto one VM,
// compounding penalties on every subsequent step; correct placements are
// never overridden because their cost is at most the fresh-VM alternative
// (queue consolidation is exactly how schedules avoid start-up fees).
//
// cur is the placement's Eq. 2 cost; the serving loop reads it out of the
// feature vector it just extracted instead of recomputing it. priceMult
// scales the fee side of the fresh-VM alternative (both f_s and f_r live in
// tables.fresh); the caller must have scaled cur's fee component to match.
// 1·fees is bit-exact fees, so flat prices reproduce the historical guard
// decisions.
func (m *Model) guardWithCost(s *graph.State, act graph.Action, cur, priceMult float64) graph.Action {
	// Fresh-VM fees come from the precomputed serving table; only the
	// goal-dependent penalty delta is evaluated per candidate type.
	tables := m.servingTables()
	penalty := s.Acc.Penalty()
	bestType, bestCost := -1, math.Inf(1)
	for v := 0; v < tables.numTypes; v++ {
		fees := tables.fresh[act.Template*tables.numTypes+v]
		if math.IsInf(fees, 1) {
			continue
		}
		lat := tables.freshLat[act.Template*tables.numTypes+v]
		fresh := priceMult*fees + s.Acc.PeekAdd(act.Template, lat) - penalty
		if fresh < bestCost {
			bestType, bestCost = v, fresh
		}
	}
	if bestType >= 0 && bestCost < cur-1e-9 {
		return graph.Action{Kind: graph.Startup, VMType: bestType}
	}
	return act
}

// typeUsable reports whether renting VM type vt could serve any unassigned
// query.
func (m *Model) typeUsable(s *graph.State, vt int) bool {
	for t, c := range s.Unassigned {
		if c == 0 {
			continue
		}
		if _, ok := m.env.Latency(t, vt); ok {
			return true
		}
	}
	return false
}

// cheapestPlacement returns the unassigned template with the lowest
// placement-edge weight on the open VM.
func (m *Model) cheapestPlacement(s *graph.State) (template int, ok bool) {
	best := math.Inf(1)
	for t := range s.Unassigned {
		c, valid := m.prob.PlacementCost(s, t)
		if valid && c < best {
			best = c
			template = t
			ok = true
		}
	}
	return template, ok
}

// bestStartupType returns the VM type minimizing start-up fee plus the
// cheapest processing cost of any unassigned query it supports.
func (m *Model) bestStartupType(s *graph.State) (vt int, ok bool) {
	if !s.CanStartup() {
		return 0, false
	}
	best := math.Inf(1)
	for _, v := range m.env.VMTypes {
		cheapest := math.Inf(1)
		for t, c := range s.Unassigned {
			if c == 0 {
				continue
			}
			lat, valid := m.env.Latency(t, v.ID)
			if !valid {
				continue
			}
			if rc := v.RunningCost(lat); rc < cheapest {
				cheapest = rc
			}
		}
		if math.IsInf(cheapest, 1) {
			continue
		}
		if total := v.StartupCost + cheapest; total < best {
			best = total
			vt = v.ID
			ok = true
		}
	}
	return vt, ok
}
