package core

import (
	"errors"
	"time"
)

// RetryPolicy is the failure discipline of a registry's retrain and
// checkpoint lifecycle. Retrain backoff and the circuit breaker are measured
// in drift-trigger attempts, not wall time: streams run on virtual clocks
// (SimClock) whose times are incomparable to the wall, and counting
// suppressed triggers keeps the whole discipline bit-deterministic under
// simulation. Checkpoint retry runs on background goroutines off every
// arrival path, so its backoff may (and does) sleep real time.
//
// The zero value of every field selects its default; negative disables the
// corresponding mechanism.
type RetryPolicy struct {
	// BackoffBase is how many subsequent drift triggers are suppressed
	// after the first consecutive retrain failure. Each further failure
	// doubles the suppression window up to backoffMax, plus deterministic
	// jitter of up to half the window (two registries with equal failure
	// histories draw identical jitter). Default 1; negative disables
	// backoff.
	BackoffBase int
	// BreakerThreshold consecutive retrain failures trip the circuit
	// breaker. While open, drift triggers are rejected outright (no
	// retrain starts, the detector rebaselines) until BreakerCooldown
	// triggers have been rejected; the next trigger then runs as a
	// half-open probe whose outcome closes or re-opens the breaker.
	// Default 4; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how many triggers an open breaker swallows before
	// admitting a probe. Default 32.
	BreakerCooldown int
	// CheckpointAttempts bounds how many times one epoch's durable commit
	// is attempted (first try included). Default 3; values < 1 mean 1.
	CheckpointAttempts int
	// CheckpointBackoff is the delay before the first checkpoint retry,
	// doubling per further attempt. Default 50ms.
	CheckpointBackoff time.Duration
}

// DefaultRetryPolicy returns the policy used when none is configured.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		BackoffBase:        1,
		BreakerThreshold:   4,
		BreakerCooldown:    32,
		CheckpointAttempts: 3,
		CheckpointBackoff:  50 * time.Millisecond,
	}
}

// normalized fills zero fields with defaults, leaving negative (disabled)
// values alone.
func (p RetryPolicy) normalized() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.BackoffBase == 0 {
		p.BackoffBase = d.BackoffBase
	}
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = d.BreakerThreshold
	}
	if p.BreakerCooldown == 0 {
		p.BreakerCooldown = d.BreakerCooldown
	}
	if p.CheckpointAttempts < 1 {
		p.CheckpointAttempts = d.CheckpointAttempts
	}
	if p.CheckpointBackoff == 0 {
		p.CheckpointBackoff = d.CheckpointBackoff
	}
	return p
}

// backoffMax caps the retrain backoff's suppression window, in triggers.
const backoffMax = 16

// RetryDelay returns the wall-clock delay before retry number attempt
// (attempt ≥ 1 — the delay after the attempt'th failure): the policy's
// CheckpointBackoff doubling per attempt, capped at 30s, plus a
// deterministic jitter in [0, delay/2) drawn from seed, so a fleet of
// clients retrying the same outage spreads out instead of reconverging
// in lockstep. The registry's checkpoint retries and the network
// client's dial retries share this one schedule.
func (p RetryPolicy) RetryDelay(attempt int, seed uint64) time.Duration {
	p = p.normalized()
	if attempt < 1 {
		attempt = 1
	}
	const maxDelay = 30 * time.Second
	d := p.CheckpointBackoff
	for i := 1; i < attempt && d < maxDelay; i++ {
		d <<= 1
	}
	if d > maxDelay {
		d = maxDelay
	}
	if half := d / 2; half > 0 {
		j := mix64(seed ^ uint64(attempt)*0x9e3779b97f4a7c15)
		d += time.Duration(j % uint64(half))
	}
	return d
}

// breakerState is the retrain circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (b breakerState) String() string {
	switch b {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// RobustnessStats is a snapshot of a registry's failure-path counters.
type RobustnessStats struct {
	// BackoffSuppressed counts drift triggers swallowed by exponential
	// backoff after retrain failures; BreakerRejected counts triggers
	// rejected by an open (or probing) breaker.
	BackoffSuppressed, BreakerRejected int64
	// BreakerOpens and BreakerCloses count breaker state transitions.
	BreakerOpens, BreakerCloses int64
	// Breaker is the breaker's current position: "closed", "open", or
	// "half-open".
	Breaker string
	// ConsecutiveFailures is the current run of retrain failures without
	// an intervening success.
	ConsecutiveFailures int
	// CheckpointRetries counts durable-commit attempts beyond each
	// epoch's first.
	CheckpointRetries int64
}

// errRetrainSuppressed reports that the retry discipline swallowed a drift
// trigger (backoff window or open breaker). The current epoch keeps serving;
// the stream rebaselines its detector and moves on.
var errRetrainSuppressed = errors.New("core: drift retrain suppressed by backoff/breaker")

// SetRetryPolicy replaces the registry's retry discipline. Zero fields take
// defaults, negative fields disable. Call before serving begins; the
// engine's AddRegistry applies OnlineOptions.Retry through this.
func (r *ModelRegistry) SetRetryPolicy(p RetryPolicy) {
	r.robustMu.Lock()
	defer r.robustMu.Unlock()
	r.policy = p.normalized()
}

// retryPolicy returns the active (normalized) policy.
func (r *ModelRegistry) retryPolicy() RetryPolicy {
	r.robustMu.Lock()
	defer r.robustMu.Unlock()
	return r.policy
}

// jitterLocked draws the next deterministic jitter value in [0, n).
// Callers hold robustMu.
func (r *ModelRegistry) jitterLocked(n int) int {
	if n <= 1 {
		return 0
	}
	h := mix64(r.jitterN + 0x7f4a7c15)
	r.jitterN++
	return int(h % uint64(n))
}

// admitTrigger is the gate every drift trigger passes before a retrain may
// start. It returns false when the trigger must be swallowed — the breaker
// is open and cooling down, a half-open probe is already underway, or a
// backoff window is active. Swallowed triggers still rebaseline the
// stream's drift detector (the stream does that after every trigger
// attempt), so a failing retrain path cannot storm.
func (r *ModelRegistry) admitTrigger() bool {
	r.robustMu.Lock()
	defer r.robustMu.Unlock()
	switch r.breaker {
	case breakerOpen:
		if r.breakerBudget > 0 {
			r.breakerBudget--
			r.breakerRejected.Add(1)
			return false
		}
		// Cooldown spent: admit this trigger as the half-open probe.
		r.breaker = breakerHalfOpen
		return true
	case breakerHalfOpen:
		r.breakerRejected.Add(1)
		return false
	}
	if r.suppress > 0 {
		r.suppress--
		r.backoffSuppressed.Add(1)
		return false
	}
	return true
}

// noteRetrainResult feeds a finished retrain's outcome back into the
// breaker and backoff state. Success resets everything (and closes the
// breaker if it was probing); failure escalates the backoff window and, at
// the threshold, trips the breaker.
func (r *ModelRegistry) noteRetrainResult(err error) {
	r.robustMu.Lock()
	defer r.robustMu.Unlock()
	if err == nil {
		if r.breaker != breakerClosed {
			r.breaker = breakerClosed
			r.breakerCloses.Add(1)
		}
		r.consecFailures = 0
		r.suppress = 0
		return
	}
	r.consecFailures++
	tripped := r.breaker == breakerHalfOpen ||
		(r.policy.BreakerThreshold > 0 && r.consecFailures >= r.policy.BreakerThreshold)
	if tripped {
		r.breaker = breakerOpen
		r.breakerOpens.Add(1)
		r.breakerBudget = r.policy.BreakerCooldown + r.jitterLocked(r.policy.BreakerCooldown/4+1)
		return
	}
	if r.policy.BackoffBase < 0 {
		return
	}
	window := r.policy.BackoffBase
	for i := 1; i < r.consecFailures && window < backoffMax; i++ {
		window <<= 1
	}
	window = min(window, backoffMax)
	r.suppress = window + r.jitterLocked(window/2+1)
}
