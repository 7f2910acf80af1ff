package sla

import "time"

// Tracker is the mutable counterpart of Accumulator for single-owner
// serving loops. It holds its goal's own accumulator value and advances it
// in place — a counter, or a sorted insert into a retained buffer for
// Percentile — so a scheduling loop that threads one Tracker through a
// sequence of placements performs zero allocations in steady state, and
// every penalty it reports is the accumulator's own arithmetic, bit-identical
// to the immutable accumulator's for the same goal and placement sequence.
//
// The immutability contract of Accumulator is deliberately traded away:
// a Tracker must be owned by exactly one schedule under construction, and
// snapshots of earlier accumulator values must not be retained. The A*
// search, which branches states and so genuinely needs immutable
// accumulators, keeps using NewAccumulator; the tree-guided serving path,
// which walks a single line of states, uses NewTracker.
type Tracker struct {
	class Class // selects which of the three accumulators is live
	dec   decompAcc
	mean  meanAcc
	pct   pctAcc
}

// NewTracker returns an empty Tracker for the goal. Like NewAccumulator, it
// panics for a goal outside the four families.
func NewTracker(g Goal) *Tracker {
	tr := &Tracker{}
	switch a := NewAccumulator(g).(type) {
	case decompAcc:
		tr.class, tr.dec = ClassDecomposable, a
	case meanAcc:
		tr.class, tr.mean = ClassMeanBased, a
	case pctAcc:
		tr.class, tr.pct = ClassDistribution, a
	}
	return tr
}

// Reset empties the tracker for a fresh schedule, retaining buffer capacity.
func (tr *Tracker) Reset() {
	tr.dec.penalty = 0
	tr.mean.n, tr.mean.sum = 0, 0
	tr.pct.below, tr.pct.above = 0, tr.pct.above[:0]
}

// Penalty implements Accumulator.
func (tr *Tracker) Penalty() float64 {
	switch tr.class {
	case ClassDecomposable:
		return tr.dec.Penalty()
	case ClassMeanBased:
		return tr.mean.Penalty()
	}
	return tr.pct.Penalty()
}

// Add implements Accumulator by advancing the receiver in place and
// returning it.
func (tr *Tracker) Add(templateID int, latency time.Duration) Accumulator {
	switch tr.class {
	case ClassDecomposable:
		tr.dec.add(templateID, latency)
	case ClassMeanBased:
		tr.mean.add(latency)
	default:
		tr.pct.add(latency)
	}
	return tr
}

// PeekAdd implements Accumulator.
func (tr *Tracker) PeekAdd(templateID int, latency time.Duration) float64 {
	switch tr.class {
	case ClassDecomposable:
		return tr.dec.PeekAdd(templateID, latency)
	case ClassMeanBased:
		return tr.mean.PeekAdd(templateID, latency)
	}
	return tr.pct.PeekAdd(templateID, latency)
}

// AppendSignature implements Accumulator with the immutable accumulator's
// encoding, so a serving state and a search state that agree otherwise
// produce identical signatures.
func (tr *Tracker) AppendSignature(buf []byte) []byte {
	switch tr.class {
	case ClassDecomposable:
		return tr.dec.AppendSignature(buf)
	case ClassMeanBased:
		return tr.mean.AppendSignature(buf)
	}
	return tr.pct.AppendSignature(buf)
}
