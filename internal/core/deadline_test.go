package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// deadlineTestStream trains a small model and opens a stream with a
// backlog guaranteed to contain waited queries: six arrivals at t=0
// (more than the schedule starts at once), then the clock advances so
// the next event's batch mixes waited and fresh work — the path that
// needs model acquisition, which is what a deadline bounds.
func deadlineTestStream(t *testing.T, opts OnlineOptions) (*OnlineScheduler, *Stream, *SimClock) {
	t.Helper()
	adv := smallAdvisor(t, 4, 2)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOnlineScheduler(m, opts)
	clk := &SimClock{}
	s := o.NewStream(clk)
	qs := make([]workload.Query, 6)
	for i := range qs {
		qs[i] = workload.Query{TemplateID: i % 4, Tag: i}
	}
	if err := s.Submit(context.Background(), qs...); err != nil {
		t.Fatal(err)
	}
	clk.Advance(30 * time.Second)
	return o, s, clk
}

// A per-event deadline expiring during model acquisition must degrade
// the event to the heuristic path — the arrival is placed and the
// stream keeps serving — never abort the stream the way caller
// cancellation does.
func TestSubmitDeadlineDegradesNotAborts(t *testing.T) {
	o, s, _ := deadlineTestStream(t, OnlineOptions{Reuse: true, Degrade: true})
	err := s.SubmitDeadline(context.Background(), time.Nanosecond, workload.Query{TemplateID: 1, Tag: 6})
	if err != nil {
		t.Fatalf("deadline expiry must degrade, not fail the stream: %v", err)
	}
	res := s.Finish()
	if res.DeadlineMisses != 1 {
		t.Errorf("DeadlineMisses = %d, want 1", res.DeadlineMisses)
	}
	if res.DegradedArrivals == 0 {
		t.Error("missed deadline did not route through the degraded path")
	}
	if err := res.Check(7); err != nil {
		t.Error(err)
	}
	s.Close()
	if got := o.ScaleStats().DeadlineMisses; got != 1 {
		t.Errorf("engine DeadlineMisses = %d, want 1", got)
	}
}

// Without Degrade there is no graceful response to a missed deadline:
// the expiry surfaces as an error, like any other model-path failure.
func TestSubmitDeadlineWithoutDegradeFails(t *testing.T) {
	_, s, _ := deadlineTestStream(t, OnlineOptions{Reuse: true})
	err := s.SubmitDeadline(context.Background(), time.Nanosecond, workload.Query{TemplateID: 1, Tag: 6})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	s.Close()
}

// The caller's own context going dead is a stop signal, not an overload
// condition: it aborts even with Degrade on.
func TestSubmitCancelledContextAborts(t *testing.T) {
	_, s, _ := deadlineTestStream(t, OnlineOptions{Reuse: true, Degrade: true})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Submit(ctx, workload.Query{TemplateID: 1, Tag: 6})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	s.Close()
}

// Shed folds pre-admission drops (the daemon's token bucket) into the
// same ledger as the engine's internal backlog shedding.
func TestStreamShedCounters(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOnlineScheduler(m, OnlineOptions{})
	s := o.NewStream(&SimClock{})
	s.Shed(3)
	s.Shed(0)
	s.Shed(-1)
	res := s.Finish()
	s.Close()
	if res.ShedArrivals != 3 {
		t.Errorf("ShedArrivals = %d, want 3", res.ShedArrivals)
	}
	if got := o.ScaleStats().ShedArrivals; got != 3 {
		t.Errorf("engine ShedArrivals = %d, want 3", got)
	}
}

// RetryDelay is deterministic for a seed, doubles per attempt, and its
// jitter stays within half the base delay.
func TestRetryDelaySchedule(t *testing.T) {
	p := RetryPolicy{CheckpointBackoff: 10 * time.Millisecond}
	for attempt := 1; attempt <= 5; attempt++ {
		base := p.normalized().CheckpointBackoff << (attempt - 1)
		d := p.RetryDelay(attempt, 42)
		if d < base || d >= base+base/2+1 {
			t.Errorf("attempt %d: delay %v outside [%v, %v)", attempt, d, base, base+base/2)
		}
		if again := p.RetryDelay(attempt, 42); again != d {
			t.Errorf("attempt %d: nondeterministic delay %v vs %v", attempt, d, again)
		}
	}
	if p.RetryDelay(3, 1) == p.RetryDelay(3, 2) {
		t.Log("distinct seeds drew equal jitter (possible, just unlikely)")
	}
	if d := p.RetryDelay(64, 7); d > 45*time.Second {
		t.Errorf("delay cap breached: %v", d)
	}
}

// Drain's final commit catches a store that background checkpointing
// left behind (every in-fault retry exhausted): after Drain the store
// holds the serving epoch and warm-starts into it.
func TestRegistryDrainCommitsLaggingStore(t *testing.T) {
	adv := smallAdvisor(t, 3, 1)
	goal := sla.NewMaxLatency(15*time.Minute, adv.Env().Templates, sla.DefaultPenaltyRate)
	m, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewModelRegistry(m)
	r.SetRetryPolicy(RetryPolicy{CheckpointAttempts: 1, CheckpointBackoff: time.Millisecond})
	if err := r.CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	// Break the store, install an epoch (its background commit fails),
	// then heal the store: only Drain's final commit can catch it up.
	broken := errors.New("injected payload fault")
	ms.SetPayloadWriter(func(string, []byte) error { return broken })
	r.Swap(m, nil)
	r.Wait()
	if latest, _ := ms.LatestEpoch(); latest != 0 {
		t.Fatalf("store advanced to %d through a broken writer", latest)
	}
	ms.SetPayloadWriter(nil)
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if latest, ok := ms.LatestEpoch(); !ok || latest != 1 {
		t.Fatalf("store at epoch %d after drain, want 1", latest)
	}
	// And a drain against a caught-up store is a no-op.
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, data, err := ms.Latest(); err != nil || len(data) == 0 {
		t.Fatalf("drained store unreadable: %v", err)
	}
}
