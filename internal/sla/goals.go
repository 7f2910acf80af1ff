package sla

import (
	"fmt"
	"sort"
	"time"

	"wisedb/internal/workload"
)

// MaxLatency is the Max goal (§2, metric 2): no query in the workload may
// exceed Deadline. The violation period of a query is the time from missing
// the deadline until completion, so the penalty is Rate cents per second of
// per-query overage, summed over queries (§7.1, metric 1).
type MaxLatency struct {
	// Deadline is the workload-wide latency bound.
	Deadline time.Duration
	// Strictest is the tightest feasible deadline (the latency of the
	// longest template), used by Tighten (§7.3).
	Strictest time.Duration
	// Rate is the penalty rate in cents per second of violation.
	Rate float64
}

// NewMaxLatency builds a Max goal for a template set: the strictest feasible
// deadline is the longest template latency on the reference VM type.
func NewMaxLatency(deadline time.Duration, templates []workload.Template, rate float64) MaxLatency {
	strictest := time.Duration(0)
	for _, t := range templates {
		if t.BaseLatency > strictest {
			strictest = t.BaseLatency
		}
	}
	return MaxLatency{Deadline: deadline, Strictest: strictest, Rate: rate}
}

// Name implements Goal.
func (g MaxLatency) Name() string { return "Max" }

// Key implements Goal.
func (g MaxLatency) Key() string {
	return fmt.Sprintf("max:%d:%d:%g", g.Deadline, g.Strictest, g.Rate)
}

// Penalty implements Goal.
func (g MaxLatency) Penalty(perf []QueryPerf) float64 {
	total := 0.0
	for _, p := range perf {
		total += ratePenalty(overage(p.Latency, g.Deadline), g.Rate)
	}
	return total
}

// PenaltyOne implements SingleQueryPenalty.
func (g MaxLatency) PenaltyOne(templateID int, latency time.Duration) float64 {
	return ratePenalty(overage(latency, g.Deadline), g.Rate)
}

// Monotonic implements Goal. Appending a query to the open VM can only add
// violations (§4.3).
func (g MaxLatency) Monotonic() bool { return true }

// Class implements Goal.
func (g MaxLatency) Class() Class { return ClassDecomposable }

// Tighten implements Goal.
func (g MaxLatency) Tighten(p float64) Goal {
	g.Deadline = tightenDeadline(g.Deadline, g.Strictest, p)
	return g
}

// Shiftable implements Goal.
func (g MaxLatency) Shiftable() bool { return true }

// Shift implements Goal: for Max the tightening function of the wait d is
// the identity (§6.3).
func (g MaxLatency) Shift(d time.Duration) Goal {
	g.Deadline -= d
	if g.Deadline < 0 {
		g.Deadline = 0
	}
	return g
}

// PerQuery is the per-query-deadline goal (§2, metric 1): queries of
// template i must finish within Deadlines[i]. The paper's experiments derive
// deadlines as a multiple of each template's latency (§7.1, metric 2).
type PerQuery struct {
	// Deadlines maps template ID to that template's latency bound.
	Deadlines []time.Duration
	// Strictest maps template ID to the tightest feasible deadline (the
	// template's own latency).
	Strictest []time.Duration
	// Rate is the penalty rate in cents per second of violation.
	Rate float64
}

// NewPerQuery builds a PerQuery goal whose deadline for each template is
// multiplier × the template's base latency (§7.1 uses multiplier 3).
func NewPerQuery(multiplier float64, templates []workload.Template, rate float64) PerQuery {
	deadlines := make([]time.Duration, len(templates))
	strictest := make([]time.Duration, len(templates))
	for i, t := range templates {
		deadlines[i] = time.Duration(multiplier * float64(t.BaseLatency))
		strictest[i] = t.BaseLatency
	}
	return PerQuery{Deadlines: deadlines, Strictest: strictest, Rate: rate}
}

// Deadline returns the deadline for template id, or the maximum deadline for
// out-of-range ids (unknown templates are matched by latency elsewhere).
func (g PerQuery) Deadline(id int) time.Duration {
	if id >= 0 && id < len(g.Deadlines) {
		return g.Deadlines[id]
	}
	max := time.Duration(0)
	for _, d := range g.Deadlines {
		if d > max {
			max = d
		}
	}
	return max
}

// Name implements Goal.
func (g PerQuery) Name() string { return "PerQuery" }

// Key implements Goal.
func (g PerQuery) Key() string {
	return fmt.Sprintf("perquery:%v:%g", g.Deadlines, g.Rate)
}

// Penalty implements Goal.
func (g PerQuery) Penalty(perf []QueryPerf) float64 {
	total := 0.0
	for _, p := range perf {
		total += ratePenalty(overage(p.Latency, g.Deadline(p.TemplateID)), g.Rate)
	}
	return total
}

// PenaltyOne implements SingleQueryPenalty.
func (g PerQuery) PenaltyOne(templateID int, latency time.Duration) float64 {
	return ratePenalty(overage(latency, g.Deadline(templateID)), g.Rate)
}

// Monotonic implements Goal.
func (g PerQuery) Monotonic() bool { return true }

// Class implements Goal.
func (g PerQuery) Class() Class { return ClassDecomposable }

// Tighten implements Goal.
func (g PerQuery) Tighten(p float64) Goal {
	deadlines := make([]time.Duration, len(g.Deadlines))
	for i := range deadlines {
		deadlines[i] = tightenDeadline(g.Deadlines[i], g.Strictest[i], p)
	}
	g.Deadlines = deadlines
	return g
}

// Shiftable implements Goal.
func (g PerQuery) Shiftable() bool { return true }

// Shift implements Goal.
func (g PerQuery) Shift(d time.Duration) Goal {
	deadlines := make([]time.Duration, len(g.Deadlines))
	for i := range deadlines {
		deadlines[i] = g.Deadlines[i] - d
		if deadlines[i] < 0 {
			deadlines[i] = 0
		}
	}
	g.Deadlines = deadlines
	return g
}

// WithExtraTemplate returns a copy of the goal extended with a deadline for
// one more template. Online scheduling introduces "new templates" whose
// latency is inflated by queue wait (§6.3); the new template keeps the
// deadline of the template it derives from, reduced by the wait already
// served.
func (g PerQuery) WithExtraTemplate(deadline, strictest time.Duration) PerQuery {
	g.Deadlines = append(append([]time.Duration(nil), g.Deadlines...), deadline)
	g.Strictest = append(append([]time.Duration(nil), g.Strictest...), strictest)
	return g
}

// Average is the average-latency goal (§2, metric 3): the mean latency of
// the workload must not exceed Deadline. Its violation period is the
// difference between the actual and desired average (§3), so the penalty is
// Rate cents per second of mean overage (§7.1, metric 3).
type Average struct {
	// Deadline is the bound on mean workload latency.
	Deadline time.Duration
	// Strictest is the tightest feasible bound (the mean template
	// latency).
	Strictest time.Duration
	// Rate is the penalty rate in cents per second of violation.
	Rate float64
}

// NewAverage builds an Average goal; the strictest feasible bound is the
// mean template latency on the reference VM type.
func NewAverage(deadline time.Duration, templates []workload.Template, rate float64) Average {
	var sum time.Duration
	for _, t := range templates {
		sum += t.BaseLatency
	}
	strictest := time.Duration(0)
	if len(templates) > 0 {
		strictest = sum / time.Duration(len(templates))
	}
	return Average{Deadline: deadline, Strictest: strictest, Rate: rate}
}

// Name implements Goal.
func (g Average) Name() string { return "Average" }

// Key implements Goal.
func (g Average) Key() string {
	return fmt.Sprintf("avg:%d:%d:%g", g.Deadline, g.Strictest, g.Rate)
}

// Penalty implements Goal.
func (g Average) Penalty(perf []QueryPerf) float64 {
	if len(perf) == 0 {
		return 0
	}
	var sum time.Duration
	for _, p := range perf {
		sum += p.Latency
	}
	avg := sum / time.Duration(len(perf))
	return ratePenalty(overage(avg, g.Deadline), g.Rate)
}

// PenaltyMean returns the penalty of a workload whose mean latency is mean,
// without materializing per-query outcomes.
func (g Average) PenaltyMean(mean time.Duration) float64 {
	return ratePenalty(overage(mean, g.Deadline), g.Rate)
}

// Monotonic implements Goal: adding a short query can lower the mean, so
// Average is not monotonically increasing (§4.3).
func (g Average) Monotonic() bool { return false }

// Class implements Goal.
func (g Average) Class() Class { return ClassMeanBased }

// Tighten implements Goal.
func (g Average) Tighten(p float64) Goal {
	g.Deadline = tightenDeadline(g.Deadline, g.Strictest, p)
	return g
}

// Shiftable implements Goal.
func (g Average) Shiftable() bool { return false }

// Shift implements Goal.
func (g Average) Shift(time.Duration) Goal { panic("sla: Average goal is not linearly shiftable") }

// Percentile is the percentile goal (§2, metric 4): at least Percent% of
// the workload's queries must finish within Deadline. The violation period
// is the overage of the Percent-th percentile latency beyond Deadline
// (§7.1, metric 4).
type Percentile struct {
	// Percent is the fraction of queries (0-100] that must meet Deadline.
	Percent float64
	// Deadline is the latency bound for the Percent-th percentile.
	Deadline time.Duration
	// Strictest is the tightest feasible bound.
	Strictest time.Duration
	// Rate is the penalty rate in cents per second of violation.
	Rate float64
}

// NewPercentile builds a Percentile goal (§7.1 uses 90% within 10 minutes).
// The strictest feasible deadline is the longest template latency.
func NewPercentile(percent float64, deadline time.Duration, templates []workload.Template, rate float64) Percentile {
	if percent <= 0 || percent > 100 {
		panic("sla: NewPercentile requires 0 < percent <= 100")
	}
	strictest := time.Duration(0)
	for _, t := range templates {
		if t.BaseLatency > strictest {
			strictest = t.BaseLatency
		}
	}
	return Percentile{Percent: percent, Deadline: deadline, Strictest: strictest, Rate: rate}
}

// Name implements Goal.
func (g Percentile) Name() string { return "Percentile" }

// Key implements Goal.
func (g Percentile) Key() string {
	return fmt.Sprintf("pct:%g:%d:%d:%g", g.Percent, g.Deadline, g.Strictest, g.Rate)
}

// Penalty implements Goal.
func (g Percentile) Penalty(perf []QueryPerf) float64 {
	if len(perf) == 0 {
		return 0
	}
	lats := make([]time.Duration, len(perf))
	for i, p := range perf {
		lats[i] = p.Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return ratePenalty(overage(lats[g.Rank(len(lats))-1], g.Deadline), g.Rate)
}

// Rank returns the 1-based nearest-rank position of the goal's percentile in
// a workload of n queries — ⌈Percent/100 · n⌉, with slack for float error —
// clamped to [1, n], or 0 when n is 0. Every Percentile penalty, incremental
// or batch, and every search bound reads its rank here.
func (g Percentile) Rank(n int) int {
	return min(max(int((g.Percent/100)*float64(n)+0.999999), 1), n)
}

// Monotonic implements Goal: adding fast queries can pull the percentile
// under the deadline, so Percentile is not monotonically increasing.
func (g Percentile) Monotonic() bool { return false }

// Class implements Goal.
func (g Percentile) Class() Class { return ClassDistribution }

// Tighten implements Goal.
func (g Percentile) Tighten(p float64) Goal {
	g.Deadline = tightenDeadline(g.Deadline, g.Strictest, p)
	return g
}

// Shiftable implements Goal.
func (g Percentile) Shiftable() bool { return false }

// Shift implements Goal.
func (g Percentile) Shift(time.Duration) Goal {
	panic("sla: Percentile goal is not linearly shiftable")
}

// tightenDeadline applies the paper's tightening formula (§7.3):
// t + (g - t) × (1 - p), where t is the strictest feasible value and g the
// current one. p < 0 loosens; the result never drops below t for p <= 1.
func tightenDeadline(current, strictest time.Duration, p float64) time.Duration {
	d := time.Duration(float64(strictest) + float64(current-strictest)*(1-p))
	if d < strictest && p <= 1 {
		d = strictest
	}
	if d < 0 {
		d = 0
	}
	return d
}
