package core

import (
	"context"
	"fmt"
	"time"

	"wisedb/internal/sla"
)

// Adapt re-trains the model for a stricter goal with minimal work (§5):
// instead of sampling and searching from scratch, it revisits the model's
// retained sample workloads on the same scheduling graphs with updated edge
// weights. For monotonic goals a sample whose retained optimal schedule
// costs under the new goal exactly what it cost under the old one keeps
// that schedule without a search (the replay certificate, see
// search.Searcher.Replay); every other sample is re-solved with the
// model's transposition cache. The certificate rests on the new goal being
// at least as strict, so a looser Max or PerQuery goal is an error.
// Average and Percentile adaptations re-solve exactly, once per distinct
// start state, as Train does. The model must have been trained with
// KeepTrainingData. The work runs on the same worker pool as Train
// (TrainingConfig.Parallelism) and the result is identical for any worker
// count — and, for monotonic goals, identical to adapting without the
// certificate, which only skips work.
//
// Models keep no §5 closed sets, so a re-solve runs without the Lemma 5.1
// heuristic h'(v) = max(h(v), C* − g_old(v)). It changes no model (the
// canonical search returns the same schedule whatever heuristic strength
// it runs with), and one set per sample held twenty times the memory of
// the rest of a model to save at most 15 % of the states the re-solves
// generate, at small tightenings (EXPERIMENTS, "Fig. 16: the certificate,
// not Lemma 5.1"). search.Reuse remains the building block for a caller
// that keeps one.
//
// The returned model itself retains training data, so a chain of
// progressively stricter goals — as built by strategy recommendation — can
// adapt step by step.
func (m *Model) Adapt(goal sla.Goal) (*Model, error) {
	return m.AdaptContext(context.Background(), goal)
}

// AdaptContext is Adapt with cancellation.
func (m *Model) AdaptContext(ctx context.Context, goal sla.Goal) (*Model, error) {
	return m.adapt(ctx, goal, true, nil, true)
}

// adapt implements Adapt: a build over the model's own samples. keep
// controls whether the new model retains its own training data (needed to
// adapt it further; one-shot shifts keep only each sample's solved path).
// near, when non-nil, is a one-shot shift of m to a goal no stricter than
// the new one: its solved paths, closer to the new goal's than m's own, are
// the ones the certificate tries. certify false re-solves every sample
// (tests compare the two).
func (m *Model) adapt(ctx context.Context, goal sla.Goal, keep bool, near *Model, certify bool) (*Model, error) {
	if len(m.samples) == 0 {
		return nil, fmt.Errorf("core: Adapt requires a model trained with KeepTrainingData")
	}
	if !atLeastAsStrict(goal, m.Goal) {
		return nil, fmt.Errorf("core: Adapt to %s: adaptive re-training requires a goal at least as strict as the model's; train a fresh model for looser ones", goal.Key())
	}
	// The certificate needs the retained paths to be canonical optima:
	// monotonic goals on both sides.
	src := sources{prior: m.samples, replay: certify && goal.Monotonic() && m.Goal.Monotonic(), oneShot: !keep}
	if src.replay && near != nil && len(near.shifted) == len(m.samples) {
		src.near = near.shifted
	}
	// The same sample workloads, so the same arrival mix.
	return build(ctx, m.env, goal, m.TrainingConfig, nil, m.trainingMix, src)
}

// atLeastAsStrict reports whether goal prices no schedule below old, which
// the replay certificate assumes: for the
// monotonic families, the same family with no later deadline and no lower
// penalty rate. Average and Percentile adaptations re-solve exactly.
func atLeastAsStrict(goal, old sla.Goal) bool {
	switch g := goal.(type) {
	case sla.MaxLatency:
		o, ok := old.(sla.MaxLatency)
		return ok && g.Deadline <= o.Deadline && g.Rate >= o.Rate
	case sla.PerQuery:
		o, ok := old.(sla.PerQuery)
		if !ok || len(g.Deadlines) != len(o.Deadlines) || g.Rate < o.Rate {
			return false
		}
		for i, d := range g.Deadlines {
			if d > o.Deadlines[i] {
				return false
			}
		}
	}
	return true
}

// Tighten adapts the model to its own goal tightened by fraction p (§7.3's
// tightening formula).
func (m *Model) Tighten(p float64) (*Model, error) {
	if p < 0 {
		return nil, fmt.Errorf("core: Tighten(p=%g): adaptive re-training requires a stricter goal; train a fresh model for looser ones", p)
	}
	return m.Adapt(m.Goal.Tighten(p))
}

// ShiftedModel adapts the model to its goal linearly shifted by wait d
// (§6.3's linear-shifting optimization, valid for shiftable goals only:
// scheduling queries that have waited d equals scheduling fresh queries
// under a goal tightened by d).
func (m *Model) ShiftedModel(d time.Duration) (*Model, error) {
	return m.ShiftedModelContext(context.Background(), d)
}

// ShiftedModelContext is ShiftedModel with cancellation: online streams
// thread their run context through model acquisition so a cancelled stream
// does not leave an adaptation running.
func (m *Model) ShiftedModelContext(ctx context.Context, d time.Duration) (*Model, error) {
	return m.shiftedFrom(ctx, d, nil)
}

// shiftedFrom is ShiftedModelContext given near, a model ShiftedModelContext
// built from m for a shorter wait (or nil): the online engine passes the
// nearest smaller entry of its ω-map, whose solved paths the new build
// replays wherever the extra wait did not change a sample's optimum. The
// returned model does not depend on near.
func (m *Model) shiftedFrom(ctx context.Context, d time.Duration, near *Model) (*Model, error) {
	if !m.Goal.Shiftable() {
		return nil, fmt.Errorf("core: goal %s is not linearly shiftable", m.Goal.Name())
	}
	if d == 0 {
		return m, nil
	}
	return m.adapt(ctx, m.Goal.Shift(d), false, near, true)
}
