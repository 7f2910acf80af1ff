package server

import (
	"sync"
	"time"
)

// tokenBucket is the daemon's admission controller: a classic
// rate/burst bucket taken from on every Submit frame, *before* the
// engine sees the batch. Shedding here (instead of inside placement)
// keeps overload cost at the price of a decode — the advisor never
// spends a microsecond on work the server cannot afford — and the shed
// counters land in the same ledger as the engine's internal MaxBacklog
// shedding (OnlineResult.ShedArrivals, engine-owned ScaleStats.ShedArrivals).
//
// The refill is lazy: tokens accrue on each take from the elapsed
// wall-clock time, so an idle bucket costs nothing. A mutex (not CAS)
// guards the two floats and keeps partial takes (admit 3 of 5) exact.
// An uncontended take is ≈ 60 ns (time.Now, then tens of nanoseconds
// under the lock). A pipelined frame pays no syscall and arms no
// deadline of its own, so with admission on this is the most expensive
// thing a frame does outside the engine — against ≈ 730 ns for the
// whole network arrival.
type tokenBucket struct {
	rate  float64 // tokens per second
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst), // start full: admit the first burst
		last:   time.Now(),
	}
}

// take admits up to n queries, returning how many got tokens. The
// remainder is the caller's to shed. Partial admission sheds the
// newest queries of the batch — the same newest-first-sheddable rule
// the engine's MaxBacklog applies.
func (b *tokenBucket) take(n int) int {
	if n <= 0 {
		return 0
	}
	now := time.Now()
	b.mu.Lock()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	admit := n
	if b.tokens < float64(n) {
		admit = int(b.tokens)
	}
	b.tokens -= float64(admit)
	b.mu.Unlock()
	return admit
}
