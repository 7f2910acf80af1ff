// Package sla implements WiSeDB's performance goals (§2) and their penalty
// functions (§3). Four goal families are supported, matching the paper:
//
//   - PerQuery: each template has its own latency deadline.
//   - Max: an upper bound on the worst query latency in the workload.
//   - Average: an upper bound on the mean query latency of the workload.
//   - Percentile: at least y% of queries must finish within x.
//
// Penalties are computed from violation periods at a fixed rate (cents per
// second of violation), which is the penalty structure the paper adopts from
// IaaS SLAs (§3) and instantiates in §7.1. The package also implements goal
// tightening (used by adaptive modeling, §5, and the strictness experiments,
// §7.2-7.3) and linear shifting (used by online scheduling, §6.3).
package sla

import (
	"time"
)

// QueryPerf is the per-query outcome a goal is evaluated against: which
// template the query belongs to and its observed (or estimated) latency,
// measured from workload submission to query completion.
type QueryPerf struct {
	TemplateID int
	Latency    time.Duration
}

// Class describes how much schedule history a goal's penalty depends on.
// The A* search uses it to choose a state-deduplication signature that is
// exact for the goal (see internal/search).
type Class int

const (
	// ClassDecomposable penalties are sums of independent per-query
	// penalties (PerQuery, Max).
	ClassDecomposable Class = iota
	// ClassMeanBased penalties depend only on the count and sum of
	// latencies (Average).
	ClassMeanBased
	// ClassDistribution penalties depend on the full latency distribution
	// (Percentile).
	ClassDistribution
)

// Goal is an application performance goal R together with its penalty
// function p(R, S). Implementations are immutable values.
type Goal interface {
	// Name returns the goal family name ("PerQuery", "Max", "Average",
	// "Percentile").
	Name() string
	// Key returns a string that uniquely identifies the goal, family and
	// parameters included. It is used to key model caches.
	Key() string
	// Penalty returns p(R, S) in cents for the given (possibly partial)
	// set of per-query outcomes.
	Penalty(perf []QueryPerf) float64
	// Monotonic reports whether the goal is monotonically increasing
	// (§4.3): appending a query to the open VM never decreases the
	// penalty. Max and PerQuery are monotonic; Average and Percentile
	// are not.
	Monotonic() bool
	// Class reports the goal's penalty-structure class.
	Class() Class
	// Tighten returns the goal tightened by fraction p of the distance
	// to its strictest feasible value, following §7.3:
	// deadline' = t + (g-t)×(1-p) where t is the strictest value and g
	// the current one. Negative p loosens the goal. p must be < 1.
	Tighten(p float64) Goal
	// Shiftable reports whether the goal is linearly shiftable (§6.3):
	// delaying all queries by d is equivalent to tightening by d.
	// Max and PerQuery are shiftable.
	Shiftable() bool
	// Shift returns the goal tightened by the wait duration d. It panics
	// if the goal is not shiftable.
	Shift(d time.Duration) Goal
}

// SingleQueryPenalty is implemented by goals whose penalty decomposes into
// independent per-query penalties (ClassDecomposable). PenaltyOne returns
// the penalty of one query outcome without the []QueryPerf allocation of
// Penalty; the serving hot path evaluates many hypothetical placements per
// scheduling step through this fast path.
type SingleQueryPenalty interface {
	// PenaltyOne returns Penalty([]QueryPerf{{TemplateID: templateID,
	// Latency: latency}}) without allocating.
	PenaltyOne(templateID int, latency time.Duration) float64
}

// PenaltyHistoryFree reports whether the goal's penalty deltas are
// independent of schedule history: adding a query outcome changes the
// penalty by an amount that depends only on that outcome, never on the
// outcomes already accumulated. This is exactly ClassDecomposable
// (PerQuery, Max).
//
// The scheduling-graph search exploits it twice. First, history-free states
// can share one static accumulator — the penalty-relevant part of an edge
// weight, PeekAdd − Penalty, telescopes to the single-query penalty — so
// expanding an edge allocates nothing for penalty tracking. Second, a
// history-free accumulator appends no bytes to the state signature, so the
// canonical suffix key (unassigned counts, open-VM type, queued wait) is
// workload-independent and solved suffixes transfer across sample searches
// (the transposition cache in internal/search).
func PenaltyHistoryFree(g Goal) bool {
	return g.Class() == ClassDecomposable
}

// overage returns how far latency exceeds deadline, or zero.
func overage(latency, deadline time.Duration) time.Duration {
	if latency > deadline {
		return latency - deadline
	}
	return 0
}

// DefaultPenaltyRate is the paper's penalty rate: one cent per second of
// violation (§7.1).
const DefaultPenaltyRate = 1.0

// ratePenalty converts a violation period to cents at rate cents/second.
func ratePenalty(violation time.Duration, rate float64) float64 {
	if violation <= 0 {
		return 0
	}
	return violation.Seconds() * rate
}
