package core

import (
	"fmt"
	"sort"
	"time"

	"wisedb/internal/workload"
)

// Clock supplies the current time of one arrival stream as an offset from
// the stream's start. The online engine is clock-agnostic: the same stream
// core runs against virtual time (SimClock, driven by a workload's recorded
// arrival instants) and against wall-clock time (WallClock, for live
// serving), so simulated experiments and the event-driven serving mode
// exercise identical scheduling code.
type Clock interface {
	Now() time.Duration
}

// SimClock is a virtual clock advanced explicitly by its driver. The
// workload replay drivers (Run, RunTenants) advance it to each arrival
// event's timestamp before handing the event to the stream core.
//
// A SimClock is owned by a single stream and is not safe for concurrent use.
type SimClock struct {
	t time.Duration
}

// Now returns the virtual time.
func (c *SimClock) Now() time.Duration { return c.t }

// Advance moves the clock to t. Time is monotonic: rewinding panics, since
// a stream that observed a later time has already committed scheduling
// decisions against it.
func (c *SimClock) Advance(t time.Duration) {
	if t < c.t {
		panic(fmt.Sprintf("core: SimClock rewound from %s to %s", c.t, t))
	}
	c.t = t
}

// WallClock reads real elapsed time since its creation. Streams driven by
// live arrivals (Stream.Submit under a WallClock) timestamp each event with
// it.
type WallClock struct {
	start time.Time
}

// NewWallClock returns a clock whose zero instant is now.
func NewWallClock() *WallClock { return &WallClock{start: time.Now()} }

// Now returns the elapsed wall time since the clock was created.
func (c *WallClock) Now() time.Duration { return time.Since(c.start) }

// arrivalQueue is the event queue of a replayed workload: it yields the
// queries of a time-sorted stream one scheduling event at a time, grouping
// queries that arrive at the same instant into a single batch event (§6.3
// re-schedules once per arrival instant, not once per query).
type arrivalQueue struct {
	queries []workload.Query // sorted by arrival
	i       int
}

// newArrivalQueue wraps the queries in arrival order. Queries already
// sorted by arrival — every workload generator emits them that way — are
// served in place with no copy, which matters when RunTenants replays 10k
// tenant queues; an unsorted stream is copied (keeping the caller's
// workload untouched) and stably sorted, so same-instant queries keep their
// submission order either way.
func newArrivalQueue(queries []workload.Query) *arrivalQueue {
	if sort.SliceIsSorted(queries, func(i, j int) bool { return queries[i].Arrival < queries[j].Arrival }) {
		return &arrivalQueue{queries: queries}
	}
	qs := append([]workload.Query(nil), queries...)
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Arrival < qs[j].Arrival })
	return &arrivalQueue{queries: qs}
}

// next pops the next arrival event: the batch of all queries arriving at the
// earliest remaining instant. ok is false when the queue is drained. The
// returned slice aliases the queue's storage and is valid until the next
// call.
func (q *arrivalQueue) next() (t time.Duration, batch []workload.Query, ok bool) {
	if q.i >= len(q.queries) {
		return 0, nil, false
	}
	start := q.i
	t = q.queries[start].Arrival
	for q.i < len(q.queries) && q.queries[q.i].Arrival == t {
		q.i++
	}
	return t, q.queries[start:q.i], true
}
