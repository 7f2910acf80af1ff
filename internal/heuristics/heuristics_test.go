package heuristics

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

func env(n int) *schedule.Env {
	return schedule.NewEnv(workload.DefaultTemplates(n), cloud.DefaultVMTypes(1))
}

// The §3 counterexample: templates of 4, 3, 2 minutes, two queries each,
// max execution time 9 minutes. FFD and FFI both need 3 VMs; the optimum
// needs 2. This pins down the exact first-fit semantics the paper assumes.
func TestSectionThreeExample(t *testing.T) {
	templates := []workload.Template{
		{ID: 0, Name: "T1", BaseLatency: 4 * time.Minute},
		{ID: 1, Name: "T2", BaseLatency: 3 * time.Minute},
		{ID: 2, Name: "T3", BaseLatency: 2 * time.Minute},
	}
	e := schedule.NewEnv(templates, cloud.DefaultVMTypes(1))
	goal := sla.NewMaxLatency(9*time.Minute, templates, 1)
	w := &workload.Workload{Templates: templates, Queries: []workload.Query{
		{TemplateID: 0, Tag: 0}, {TemplateID: 0, Tag: 1},
		{TemplateID: 1, Tag: 2}, {TemplateID: 1, Tag: 3},
		{TemplateID: 2, Tag: 4}, {TemplateID: 2, Tag: 5},
	}}
	ffd := FFD(w, e, goal, 0)
	if got := len(ffd.VMs); got != 3 {
		t.Fatalf("FFD: paper predicts 3 VMs {[4,4],[3,3,2],[2]}, got %d: %s", got, ffd)
	}
	ffi := FFI(w, e, goal, 0)
	if got := len(ffi.VMs); got != 3 {
		t.Fatalf("FFI: paper predicts 3 VMs, got %d: %s", got, ffi)
	}
	for _, s := range []*schedule.Schedule{ffd, ffi} {
		if pen := s.Penalty(e, goal); pen != 0 {
			t.Fatalf("first-fit schedules must be penalty-free here, got %g", pen)
		}
		if err := s.Validate(e, w); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFFDOrdering(t *testing.T) {
	e := env(5)
	goal := sla.NewMaxLatency(15*time.Minute, e.Templates, 1)
	w := workload.NewSampler(e.Templates, 3).Uniform(20)
	s := FFD(w, e, goal, 0)
	// First VM's first query must be one of the longest.
	first := s.VMs[0].Queue[0].TemplateID
	if first != 4 {
		// Only if template 4 occurs in the workload.
		if w.Counts()[4] > 0 {
			t.Fatalf("FFD must start with the longest template, got T%d", first)
		}
	}
	if err := s.Validate(e, w); err != nil {
		t.Fatal(err)
	}
}

func TestFFIOrdering(t *testing.T) {
	e := env(5)
	goal := sla.NewMaxLatency(15*time.Minute, e.Templates, 1)
	w := workload.NewSampler(e.Templates, 3).Uniform(20)
	s := FFI(w, e, goal, 0)
	first := s.VMs[0].Queue[0].TemplateID
	if w.Counts()[0] > 0 && first != 0 {
		t.Fatalf("FFI must start with the shortest template, got T%d", first)
	}
}

func TestPack9Ordering(t *testing.T) {
	e := env(2)
	goal := sla.NewMaxLatency(100*time.Hour, e.Templates, 1) // no penalties: single VM
	queries := make([]workload.Query, 12)
	for i := range queries {
		tid := 0
		if i < 2 {
			tid = 1 // two long queries
		}
		queries[i] = workload.Query{TemplateID: tid, Tag: i}
	}
	w := &workload.Workload{Templates: e.Templates, Queries: queries}
	s := Pack9(w, e, goal, 0)
	if len(s.VMs) != 1 {
		t.Fatalf("loose goal: want single VM, got %d", len(s.VMs))
	}
	q := s.VMs[0].Queue
	// Pack9 emits 9 shortest, then the largest, then the rest.
	for i := 0; i < 9; i++ {
		if q[i].TemplateID != 0 {
			t.Fatalf("position %d: want short template, got T%d", i, q[i].TemplateID)
		}
	}
	if q[9].TemplateID != 1 {
		t.Fatalf("position 9: want the longest template, got T%d", q[9].TemplateID)
	}
}

// Every heuristic must place every query exactly once, for every goal type.
func TestHeuristicsComplete(t *testing.T) {
	e := env(5)
	goals := []sla.Goal{
		sla.NewMaxLatency(15*time.Minute, e.Templates, 1),
		sla.NewPerQuery(3, e.Templates, 1),
		sla.NewAverage(10*time.Minute, e.Templates, 1),
		sla.NewPercentile(90, 10*time.Minute, e.Templates, 1),
	}
	w := workload.NewSampler(e.Templates, 11).Uniform(50)
	for _, goal := range goals {
		for name, h := range map[string]func(*workload.Workload, *schedule.Env, sla.Goal, int) *schedule.Schedule{
			"FFD": FFD, "FFI": FFI, "Pack9": Pack9,
		} {
			s := h(w, e, goal, 0)
			if err := s.Validate(e, w); err != nil {
				t.Fatalf("%s under %s: %v", name, goal.Name(), err)
			}
		}
	}
}

// With a tight deadline every query gets its own VM (nothing else "fits").
func TestFirstFitTightDeadline(t *testing.T) {
	e := env(3)
	goal := sla.NewMaxLatency(e.Templates[0].BaseLatency, e.Templates, 1)
	w := workload.NewSampler(e.Templates, 4).Uniform(8)
	s := FFD(w, e, goal, 0)
	if len(s.VMs) != 8 {
		t.Fatalf("tight deadline: want 8 VMs, got %d (%s)", len(s.VMs), s)
	}
}

// A query that cannot fit anywhere still gets placed (on its own VM).
func TestFirstFitPlacesUnfittableQueries(t *testing.T) {
	e := env(3)
	// Deadline shorter than the shortest template: every placement
	// incurs a penalty.
	goal := sla.NewMaxLatency(time.Minute, e.Templates, 1)
	w := workload.NewSampler(e.Templates, 4).Uniform(5)
	s := FFI(w, e, goal, 0)
	if err := s.Validate(e, w); err != nil {
		t.Fatal(err)
	}
	if s.NumQueries() != 5 {
		t.Fatalf("all queries must be placed, got %d", s.NumQueries())
	}
}

// OrderFor pairs each SLA goal class with its §7.2 first-fit ordering.
func TestOrderFor(t *testing.T) {
	e := env(3)
	cases := []struct {
		goal sla.Goal
		want Order
	}{
		{sla.NewMaxLatency(10*time.Minute, e.Templates, 1), Decreasing},
		{sla.NewPercentile(90, 10*time.Minute, e.Templates, 1), Pack9Order},
		{sla.NewPerQuery(3, e.Templates, 1), Increasing},
		{sla.NewAverage(10*time.Minute, e.Templates, 1), Increasing},
	}
	for _, c := range cases {
		if got := OrderFor(c.goal); got != c.want {
			t.Errorf("OrderFor(%T) = %v, want %v", c.goal, got, c.want)
		}
	}
}

// referenceFirstFit is the first-fit pass as it was written before the
// scratch-taking rewrite — copy, comparison sort, one immutable accumulator
// per probe, one append-grown queue per VM — kept verbatim as the oracle
// the production code must agree with placement for placement.
func referenceFirstFit(w *workload.Workload, env *schedule.Env, goal sla.Goal, vmType int, order Order) *schedule.Schedule {
	queries := referenceOrderedQueries(w, env, vmType, order)
	sched := &schedule.Schedule{}
	waits := []time.Duration{} // per-VM queued execution time
	acc := sla.NewAccumulator(goal)
	for _, q := range queries {
		lat, ok := env.Latency(q.TemplateID, vmType)
		if !ok {
			lat = 1000 * time.Hour
		}
		placed := false
		for i := range sched.VMs {
			completion := waits[i] + lat
			next := acc.Add(q.TemplateID, completion)
			if next.Penalty() <= acc.Penalty()+eps {
				sched.VMs[i].Queue = append(sched.VMs[i].Queue, schedule.Placed{TemplateID: q.TemplateID, Tag: q.Tag})
				waits[i] = completion
				acc = next
				placed = true
				break
			}
		}
		if !placed {
			sched.VMs = append(sched.VMs, schedule.VM{TypeID: vmType, Queue: []schedule.Placed{{TemplateID: q.TemplateID, Tag: q.Tag}}})
			waits = append(waits, lat)
			acc = acc.Add(q.TemplateID, lat)
		}
	}
	return sched
}

// referenceOrderedQueries returns the workload's queries in the pass order.
func referenceOrderedQueries(w *workload.Workload, env *schedule.Env, vmType int, order Order) []workload.Query {
	qs := append([]workload.Query(nil), w.Queries...)
	lat := func(q workload.Query) time.Duration {
		l, ok := env.Latency(q.TemplateID, vmType)
		if !ok {
			return 1000 * time.Hour
		}
		return l
	}
	sort.SliceStable(qs, func(i, j int) bool { return lat(qs[i]) < lat(qs[j]) })
	switch order {
	case Increasing:
		return qs
	case Decreasing:
		for i, j := 0, len(qs)-1; i < j; i, j = i+1, j-1 {
			qs[i], qs[j] = qs[j], qs[i]
		}
		return qs
	case Pack9Order:
		out := make([]workload.Query, 0, len(qs))
		lo, hi := 0, len(qs)-1
		for lo <= hi {
			for n := 0; n < 9 && lo <= hi; n++ {
				out = append(out, qs[lo])
				lo++
			}
			if lo <= hi {
				out = append(out, qs[hi])
				hi--
			}
		}
		return out
	default:
		panic("heuristics: unknown order")
	}
}

// sameSchedule reports the first difference between two schedules, VM by
// VM and tag by tag.
func sameSchedule(got, want *schedule.Schedule) error {
	if len(got.VMs) != len(want.VMs) {
		return fmt.Errorf("%d VMs, want %d", len(got.VMs), len(want.VMs))
	}
	for i := range want.VMs {
		g, w := got.VMs[i], want.VMs[i]
		if g.TypeID != w.TypeID || len(g.Queue) != len(w.Queue) {
			return fmt.Errorf("vm %d: type %d with %d queries, want type %d with %d", i, g.TypeID, len(g.Queue), w.TypeID, len(w.Queue))
		}
		for j := range w.Queue {
			if g.Queue[j] != w.Queue[j] {
				return fmt.Errorf("vm %d slot %d: %+v, want %+v", i, j, g.Queue[j], w.Queue[j])
			}
		}
	}
	return nil
}

// The scratch-taking first-fit must reproduce the reference placement for
// placement. One Scratch, one schedule skeleton and one backing array serve
// every call of a goal, through batch sizes that shrink and grow, so a
// buffer carrying state from an earlier pass cannot go unnoticed. The
// templates include two of equal latency (ties must keep input order across
// templates), and VM type 1 cannot run the high-RAM ones; every fifth
// query of the larger batches names a template the env does not know.
func TestFirstFitMatchesReference(t *testing.T) {
	templates := []workload.Template{
		{ID: 0, Name: "A", BaseLatency: 2 * time.Minute},
		{ID: 1, Name: "B", BaseLatency: 3 * time.Minute},
		{ID: 2, Name: "C", BaseLatency: 3 * time.Minute},
		{ID: 3, Name: "D", BaseLatency: 5 * time.Minute, HighRAM: true},
		{ID: 4, Name: "E", BaseLatency: 7 * time.Minute},
		{ID: 5, Name: "F", BaseLatency: 4 * time.Minute, HighRAM: true},
	}
	vmTypes := cloud.DefaultVMTypes(2)
	vmTypes[1].SupportsHighRAM = false
	e := schedule.NewEnv(templates, vmTypes)
	goals := []sla.Goal{
		sla.NewMaxLatency(15*time.Minute, templates, 1),
		sla.NewPerQuery(3, templates, 1),
		sla.NewAverage(10*time.Minute, templates, 1),
		sla.NewPercentile(90, 10*time.Minute, templates, 1),
	}
	sizes := []int{100, 0, 11, 1, 10, 9, 100, 1, 0, 9, 11, 10}
	rng := rand.New(rand.NewSource(20160905))
	for _, goal := range goals {
		sc := Scratch{Tracker: sla.NewTracker(goal)}
		var sched *schedule.Schedule
		var backing []schedule.Placed
		for _, n := range sizes {
			w := &workload.Workload{Templates: templates, Queries: make([]workload.Query, n)}
			for i := range w.Queries {
				w.Queries[i] = workload.Query{TemplateID: rng.Intn(len(templates)), Tag: i}
				if n > 11 && i%5 == 4 {
					w.Queries[i].TemplateID = []int{-1, len(templates), len(templates) + 3}[rng.Intn(3)]
				}
			}
			input := append([]workload.Query(nil), w.Queries...)
			for vmType := range vmTypes {
				for _, order := range []Order{Decreasing, Increasing, Pack9Order} {
					name := fmt.Sprintf("%s vm%d order %d n=%d", goal.Name(), vmType, order, n)
					want := referenceFirstFit(w, e, goal, vmType, order)
					sched, backing = sc.FirstFit(w.Queries, e, vmType, order, sched, backing)
					if err := sameSchedule(sched, want); err != nil {
						t.Fatalf("%s, reused scratch: %v", name, err)
					}
					fresh := FirstFit(w, e, goal, vmType, order)
					if err := sameSchedule(fresh, want); err != nil {
						t.Fatalf("%s, wrapper: %v", name, err)
					}
					// The wrapper's result is independent: the next pass
					// over recycled storage must not reach it.
					sched, backing = sc.FirstFit(w.Queries, e, vmType, order, sched, backing)
					if err := sameSchedule(fresh, want); err != nil {
						t.Fatalf("%s, wrapper result changed by a later pass: %v", name, err)
					}
					for i := range input {
						if w.Queries[i] != input[i] {
							t.Fatalf("%s: input workload modified at %d", name, i)
						}
					}
				}
			}
		}
	}
}
