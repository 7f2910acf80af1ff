package core

import (
	"bytes"
	"context"

	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/store"
)

// Warm retraining: a drift retrain that reuses the prior epoch's search
// products instead of solving every sample workload from scratch. It is the
// model builder (build) with the prior epoch as a source. Two layers
// compose, each individually sound and jointly bit-transparent — the warm
// model's serving content is identical to the cold retrain's (see
// DESIGN.md, "Warm retrain"):
//
//  1. Cross-epoch transposition cache. The prior epoch's cache holds solved
//     suffix subproblems keyed by workload-independent signatures (for
//     monotonic goals: unassigned counts, open-VM type, queued wait), so
//     its entries stay exact under the new arrival mix — only the sample
//     *starts* change, never the suffix optima. The warm train derives a
//     cache from it — a small layer of its own over the prior's frozen
//     tables, so the epoch stays immutable — and seeds its worker pool
//     with it.
//  2. Sample-level path replay. Sample i's workload is drawn from the same
//     deterministic sub-seed at every epoch; a per-query inverse-CDF draw
//     changes only where the mix shift moved a bin boundary across the
//     query's variate. Samples whose draw is unchanged keep the prior's
//     workload and skip the search entirely: the prior epoch's stored
//     optimal path is replayed in O(path) (search.Replay), regenerating
//     the identical training steps. Of the cache records the search would
//     have produced, the replay keeps only those the cache does not hold
//     verbatim already — most of it came from this very path — since
//     committing one it holds would change nothing. Every other sample
//     solves cold (with the cache of layer 1).
//
// Soundness rests on the canonical-search invariant (search's solver):
// monotonic, unseeded searches return the lexicographically least optimal
// schedule regardless of cache contents or heuristic strength, so every
// layer accelerates without steering. Non-monotonic goals (Average,
// Percentile) have none of these properties — their caches are unsound
// across searches and their results are not canonical — so they fall back
// to a cold train, explicitly counted in Model.ColdSamples.

// WarmTrain trains a model for the advisor's configuration (typically the
// drifted arrival mix in SampleWeights), warm-started from prior — the
// epoch being replaced. When the (goal, environment, config) combination
// supports warm reuse, the prior epoch's transposition cache and retained
// sample searches accelerate training; otherwise this is exactly Train.
// Either way the returned model is bit-identical in serving content to a
// cold Train of the same configuration, at any Parallelism.
func (a *Advisor) WarmTrain(goal sla.Goal, prior *Model) (*Model, error) {
	return a.WarmTrainContext(context.Background(), goal, prior)
}

// WarmTrainContext is WarmTrain with cancellation.
func (a *Advisor) WarmTrainContext(ctx context.Context, goal sla.Goal, prior *Model) (*Model, error) {
	if !a.warmEligible(goal, prior) {
		return a.TrainContext(ctx, goal)
	}
	var cache *search.TranspositionCache
	if prior.searchCache != nil {
		// Derive, do not share: the warm train commits its own suffix
		// records as it runs, and the prior epoch may still be serving
		// (and being checkpointed) concurrently. The derived cache writes
		// only its own layer and reads the prior's tables.
		cache = prior.searchCache.Derive()
	}
	return build(ctx, a.env, goal, a.cfg, cache, normalizedMix(a.cfg.SampleWeights, len(a.env.Templates)), sources{
		prior: prior.samples, draw: true, replay: true,
		rebin: prior.TrainingConfig.Seed == a.cfg.Seed && prior.TrainingConfig.SampleSize == a.cfg.SampleSize,
	})
}

// warmEligible gates the warm path. Every condition guards a soundness or
// determinism requirement:
//
//   - monotonic goal: the transposition cache is only sound there, and
//     only monotonic searches are canonical;
//   - same goal: cache entries and stored path costs are goal-specific;
//   - same environment object: the prior epoch's searches priced edges on
//     this exact latency matrix (DriftRetrain always retrains on the
//     serving model's own env);
//   - something to reuse: a prior with neither cache nor retained samples
//     warms nothing.
func (a *Advisor) warmEligible(goal sla.Goal, prior *Model) bool {
	return prior != nil &&
		goal.Monotonic() &&
		prior.env == a.env &&
		goalsEqual(goal, prior.Goal) &&
		(prior.searchCache != nil || len(prior.samples) > 0)
}

// goalsEqual compares goals by their canonical persisted encoding — the
// goal families carry slices (PerQuery), so == would panic; the encoding
// compares every parameter exactly.
func goalsEqual(a, b sla.Goal) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if persistableGoal(a) != nil || persistableGoal(b) != nil {
		return false
	}
	var pa, pb store.Enc
	encodeGoal(&pa, a)
	encodeGoal(&pb, b)
	return bytes.Equal(pa.Bytes(), pb.Bytes())
}
