package sla

import (
	"cmp"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"wisedb/internal/workload"
)

// trackerGoals returns one goal per accumulator class.
func trackerGoals() map[string]Goal {
	templates := workload.DefaultTemplates(4)
	return map[string]Goal{
		"max":        NewMaxLatency(5*time.Minute, templates, DefaultPenaltyRate),
		"perquery":   NewPerQuery(1.5, templates, DefaultPenaltyRate),
		"average":    NewAverage(4*time.Minute, templates, DefaultPenaltyRate),
		"percentile": NewPercentile(75, 4*time.Minute, templates, DefaultPenaltyRate),
	}
}

// A Tracker must be observationally identical to the immutable accumulator
// for the same goal over any placement sequence: same Penalty, same PeekAdd
// for random and boundary probes, same signature bytes — across Reset
// reuse. The boundary probes (a latency exactly at the deadline, one equal
// to each violating latency already recorded, both extremes) and the
// percentiles at both ends of the workload drive every branch of the
// percentile PeekAdd, which the test counts.
func TestTrackerMatchesAccumulator(t *testing.T) {
	templates := workload.DefaultTemplates(4)
	goals := trackerGoals()
	goals["percentile-lowest"] = NewPercentile(1, 4*time.Minute, templates, DefaultPenaltyRate)
	goals["percentile-highest"] = NewPercentile(100, 4*time.Minute, templates, DefaultPenaltyRate)
	for name, goal := range goals {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			tr := NewTracker(goal)
			// Violating probes whose virtual insert lands before, at and
			// after the rank's position among the violating latencies.
			var inserts [3]int
			for round := 0; round < 5; round++ {
				tr.Reset()
				acc := NewAccumulator(goal)
				var trAcc Accumulator = tr
				for step := 0; step < 40; step++ {
					tpl := rng.Intn(4)
					lat := time.Duration(rng.Intn(600)) * time.Second
					// Probe before mutating: both PeekAdds must agree with
					// adding for real.
					probes := append([]time.Duration{lat, 4 * time.Minute, 5 * time.Minute, 0, time.Hour}, tr.pct.above...)
					for _, probe := range probes {
						want := acc.Add(tpl, probe).Penalty()
						if got := trAcc.PeekAdd(tpl, probe); got != want {
							t.Fatalf("round %d step %d: Tracker PeekAdd(%d,%s) = %g, Add says %g", round, step, tpl, probe, got, want)
						}
						if got := acc.PeekAdd(tpl, probe); got != want {
							t.Fatalf("round %d step %d: accumulator PeekAdd(%d,%s) = %g, Add says %g", round, step, tpl, probe, got, want)
						}
						if a, ok := acc.(pctAcc); ok && probe > a.goal.Deadline {
							if rank := a.goal.Rank(a.below + len(a.above) + 1); rank > a.below {
								idx, _ := slices.BinarySearch(a.above, probe)
								inserts[cmp.Compare(idx, rank-a.below-1)+1]++
							}
						}
					}
					trAcc = trAcc.Add(tpl, lat)
					acc = acc.Add(tpl, lat)
					if got, want := trAcc.Penalty(), acc.Penalty(); got != want {
						t.Fatalf("round %d step %d: Penalty = %g, accumulator says %g", round, step, got, want)
					}
					got := string(trAcc.AppendSignature(nil))
					want := string(acc.AppendSignature(nil))
					if got != want {
						t.Fatalf("round %d step %d: signature %q, accumulator %q", round, step, got, want)
					}
				}
			}
			if name == "percentile" && (inserts[0] == 0 || inserts[1] == 0 || inserts[2] == 0) {
				t.Fatalf("virtual inserts before / at / after the rank: %v; every branch must run", inserts)
			}
		})
	}
}

// Steady-state Tracker use must not allocate, for every goal family: the
// percentile tracker's violation buffer grows during the warm-up run and is
// reused after Reset.
func TestTrackerAllocationFree(t *testing.T) {
	for _, name := range []string{"max", "perquery", "average", "percentile"} {
		goal := trackerGoals()[name]
		t.Run(name, func(t *testing.T) {
			tr := NewTracker(goal)
			allocs := testing.AllocsPerRun(50, func() {
				tr.Reset()
				var acc Accumulator = tr
				for i := 0; i < 20; i++ {
					acc.PeekAdd(i%4, time.Duration(i)*time.Minute)
					acc = acc.Add(i%4, time.Duration(i)*time.Minute)
					acc.Penalty()
				}
			})
			if allocs > 0 {
				t.Fatalf("Tracker allocated %g times per run", allocs)
			}
		})
	}
}

// medianGoal is a goal outside the four families the package implements.
type medianGoal struct{ Percentile }

func (medianGoal) Name() string { return "Median" }

// Both accumulator constructors must refuse a goal they have no arithmetic
// for, naming it, instead of falling back to a generic path.
func TestUnknownGoalPanicsByName(t *testing.T) {
	goal := medianGoal{trackerGoals()["percentile"].(Percentile)}
	for name, build := range map[string]func(){
		"NewAccumulator": func() { NewAccumulator(goal) },
		"NewTracker":     func() { NewTracker(goal) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "Median") {
					t.Errorf("%s: panic %q does not name the goal", name, msg)
				}
			}()
			build()
		}()
	}
}

// The decomposable fast path must agree with the slice-based Penalty.
func TestPenaltyOneMatchesPenalty(t *testing.T) {
	templates := workload.DefaultTemplates(4)
	goals := []interface {
		Goal
		SingleQueryPenalty
	}{
		NewMaxLatency(5*time.Minute, templates, DefaultPenaltyRate),
		NewPerQuery(1.5, templates, DefaultPenaltyRate),
	}
	rng := rand.New(rand.NewSource(5))
	for _, g := range goals {
		for i := 0; i < 200; i++ {
			tpl := rng.Intn(4)
			lat := time.Duration(rng.Intn(1200)) * time.Second
			got := g.PenaltyOne(tpl, lat)
			want := g.Penalty([]QueryPerf{{TemplateID: tpl, Latency: lat}})
			if got != want {
				t.Fatalf("%s: PenaltyOne(%d, %s) = %g, Penalty = %g", g.Name(), tpl, lat, got, want)
			}
		}
	}
}

// The mean fast path must agree with the slice-based Penalty.
func TestPenaltyMeanMatchesPenalty(t *testing.T) {
	g := NewAverage(4*time.Minute, workload.DefaultTemplates(4), DefaultPenaltyRate)
	for _, mean := range []time.Duration{0, time.Minute, 4 * time.Minute, 10 * time.Minute} {
		got := g.PenaltyMean(mean)
		want := g.Penalty([]QueryPerf{{Latency: mean}})
		if got != want {
			t.Fatalf("PenaltyMean(%s) = %g, Penalty = %g", mean, got, want)
		}
	}
}
