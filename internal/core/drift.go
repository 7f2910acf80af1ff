package core

import (
	"wisedb/internal/stats"
)

// DriftOptions configures per-stream workload-drift detection (§6: the
// advisor must keep performing as the workload shifts). Each stream
// maintains a sliding histogram of its recent arrivals' templates; when the
// Earth Mover's Distance between that histogram and the serving epoch's
// training mix crosses Threshold, the stream asks the engine's registry for
// a retrain toward the observed mix, and the result is hot-swapped in.
type DriftOptions struct {
	// Window is the number of recent arrivals in the sliding histogram.
	// Zero disables drift detection (the default).
	Window int
	// Threshold is the EMD trigger level, in template-index units (see
	// stats.EMDHist; templates are ordered by base latency). Zero selects
	// DefaultDriftThreshold.
	Threshold float64
	// StableWindow, when positive, requires drift to be confirmed by a
	// second, slower histogram over the last StableWindow arrivals before
	// a retrain triggers: both the fast Window and the stable window must
	// exceed Threshold against the epoch mix. This is the periodicity
	// defense — a diurnal mix whose period fits inside StableWindow
	// averages out in the slow histogram and never retrains (the day/night
	// cycle is not drift, the long-run mix is unchanged), while a genuine
	// sustained shift fills the slow histogram too and still triggers,
	// with detection latency stretched toward StableWindow arrivals.
	// Values below Window are rounded up to Window; zero (the default)
	// disables confirmation and preserves fast-trigger behavior.
	StableWindow int
	// Synchronous retrains inline during the triggering arrival (the swap
	// is visible to the very next scheduling decision) instead of in the
	// background. Deterministic, at the price of stalling that one
	// arrival; experiments and determinism tests use it.
	Synchronous bool
}

// DefaultDriftThreshold is the EMD trigger level when DriftOptions.Threshold
// is zero: half a template-index of mass displacement, comfortably above
// sampling noise for windows of a few dozen arrivals yet crossed quickly by
// real mix shifts.
const DefaultDriftThreshold = 0.5

// enabled reports whether drift detection is on.
func (d DriftOptions) enabled() bool { return d.Window > 0 }

// normalized fills zero-valued fields with defaults.
func (d DriftOptions) normalized() DriftOptions {
	if d.Threshold == 0 {
		d.Threshold = DefaultDriftThreshold
	}
	if d.StableWindow > 0 && d.StableWindow < d.Window {
		d.StableWindow = d.Window
	}
	return d
}

// driftDetector is the per-stream sliding template-arrival histogram. All
// methods are allocation-free except mix — observe runs on the per-arrival
// hot path.
type driftDetector struct {
	opts driftRuntimeOpts
	ring []int32   // last Window template IDs, circular
	hist []float64 // counts over templates; sums to min(seen, Window)
	head int       // next ring slot to overwrite
	seen int       // total arrivals observed

	// Stable-window confirmation state (nil/empty when StableWindow is
	// off): a second, slower ring whose histogram must also drift before
	// a trigger fires.
	stableRing []int32
	stableHist []float64
	stableHead int
}

// driftRuntimeOpts is DriftOptions after normalization.
type driftRuntimeOpts struct {
	window    int
	threshold float64
	stable    int
}

// newDriftDetector returns a detector over k templates, or nil when
// detection is disabled.
func newDriftDetector(k int, opts DriftOptions) *driftDetector {
	if !opts.enabled() {
		return nil
	}
	o := opts.normalized()
	d := &driftDetector{
		opts: driftRuntimeOpts{window: o.Window, threshold: o.Threshold, stable: o.StableWindow},
		ring: make([]int32, o.Window),
		hist: make([]float64, k),
	}
	if o.StableWindow > 0 {
		d.stableRing = make([]int32, o.StableWindow)
		d.stableHist = make([]float64, k)
	}
	return d
}

// reset clears the detector for stream reuse.
func (d *driftDetector) reset() {
	for i := range d.hist {
		d.hist[i] = 0
	}
	d.head = 0
	d.seen = 0
	for i := range d.stableHist {
		d.stableHist[i] = 0
	}
	d.stableHead = 0
}

// observe records an arrival's template, then compares the sliding
// histogram against baseline (the serving epoch's training mix): it returns
// the current EMD and whether it crosses the trigger threshold. Once the
// serving mix catches up with the arrivals — after a hot swap — the EMD
// falls back under the threshold and the detector goes quiet on its own.
//
// With StableWindow armed, a fast-window excursion alone does not trigger:
// the slow histogram must drift past the threshold too, and must be warm
// (StableWindow arrivals observed) — a periodic mix fills the slow window
// with its time average and never confirms, which is what stops a diurnal
// cycle from retraining every half-period.
func (d *driftDetector) observe(tpl int, baseline []float64) (emd float64, drifted bool) {
	if d.seen >= d.opts.window {
		d.hist[d.ring[d.head]]--
	}
	d.ring[d.head] = int32(tpl)
	d.hist[tpl]++
	d.head++
	if d.head == d.opts.window {
		d.head = 0
	}
	if d.opts.stable > 0 {
		if d.seen >= d.opts.stable {
			d.stableHist[d.stableRing[d.stableHead]]--
		}
		d.stableRing[d.stableHead] = int32(tpl)
		d.stableHist[tpl]++
		d.stableHead++
		if d.stableHead == d.opts.stable {
			d.stableHead = 0
		}
	}
	d.seen++
	emd = stats.EMDHist(d.hist, baseline)
	// Only a full window may trigger: a cold histogram is all noise.
	drifted = d.seen >= d.opts.window && emd > d.opts.threshold
	if drifted && d.opts.stable > 0 {
		drifted = d.seen >= d.opts.stable && stats.EMDHist(d.stableHist, baseline) > d.opts.threshold
	}
	return emd, drifted
}

// mix returns the normalized observed histogram — the target distribution a
// drift retrain trains toward. With StableWindow armed the confirmed slow
// histogram is the target: it estimates the sustained mix, not the
// excursion that happened to cross last. Called only on trigger, so it may
// allocate.
func (d *driftDetector) mix() []float64 {
	if d.opts.stable > 0 {
		return normalizedMix(d.stableHist, len(d.stableHist))
	}
	return normalizedMix(d.hist, len(d.hist))
}
