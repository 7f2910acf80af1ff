package search

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// The grid penalty is the goal's own penalty rounded up to the grid — never
// less, never a whole grid unit more (plus the float noise of the goal's
// own multiplication) — and it is monotone and subadditive, which
// packingBound's admissibility rests on.
func TestGridPenaltyMatchesGoal(t *testing.T) {
	env := testEnv(5, 2)
	rng := rand.New(rand.NewSource(3))
	for _, rate := range []float64{sla.DefaultPenaltyRate, 0.37, 12.5} {
		goal := sla.NewMaxLatency(7*time.Minute, env.Templates, rate)
		s, err := New(graph.NewProblem(env, goal))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			a := time.Duration(rng.Int63n(int64(2 * time.Hour)))
			b := time.Duration(rng.Int63n(int64(3 * time.Second)))
			if i%3 == 0 {
				a, b = a.Truncate(time.Second), b.Truncate(time.Millisecond)
			}
			pa, pb, pab := s.overagePenalty(a), s.overagePenalty(b), s.overagePenalty(a+b)
			for _, p := range []float64{pa, pb, pab} {
				if !onGrid(p) {
					t.Fatalf("rate %g: penalty %v is off the grid", rate, p)
				}
			}
			if pa+pb < pab {
				t.Fatalf("rate %g: P(%v)+P(%v) = %v < P(%v) = %v", rate, a, b, pa+pb, a+b, pab)
			}
			if pab < pa || pab < pb {
				t.Fatalf("rate %g: P not monotone at %v, %v", rate, a, b)
			}
			want := goal.PenaltyOne(0, goal.Deadline+a)
			if d := pa - want; d < -want*1e-15 || d > gridUnit+want*1e-15 {
				t.Fatalf("rate %g: P(%v) = %.15g, goal charges %.15g", rate, a, pa, want)
			}
		}
		if p := s.penalty(0, goal.Deadline); p != 0 {
			t.Fatalf("penalty at the deadline is %v", p)
		}
	}
	for _, x := range []float64{0, 0.08, 5.2 / 30, 1e5, 131071.99} {
		if g := toGrid(x); !onGrid(g) || math.Abs(g-x) > gridUnit/2 {
			t.Fatalf("toGrid(%v) = %v", x, g)
		}
	}
	if onGrid(0.08) || onGrid(0.26+0.08) || !onGrid(30) || !onGrid(0) {
		t.Fatal("onGrid misjudges 0.08, 0.34, 30 or 0")
	}
}

// bruteToGo returns, for every state reachable from the start vertex of w,
// the exact minimum grid cost of completing it, by exhaustive memoized
// enumeration with the searcher's own edge weights; states are keyed by
// signature, which for monotonic goals determines every future weight.
func bruteToGo(s *Searcher, w *workload.Workload) (map[string]float64, map[string]*graph.State) {
	toGo := map[string]float64{}
	states := map[string]*graph.State{}
	var rec func(st *graph.State) float64
	rec = func(st *graph.State) float64 {
		if st.IsGoal() {
			return 0
		}
		sig := s.prob.Signature(st)
		if c, ok := toGo[sig]; ok {
			return c
		}
		best := math.Inf(1)
		for _, a := range s.prob.Actions(st) {
			cost, ok := s.edgeCost(st, a)
			if !ok {
				continue
			}
			if c := cost + rec(s.prob.Apply(st, a)); c < best {
				best = c
			}
		}
		toGo[sig], states[sig] = best, st
		return best
	}
	rec(s.prob.Start(w))
	return toGo, states
}

// Admissibility, exactly: at every state of every instance of a grid of Max
// and PerQuery goals at tight deadlines — down to below the longest
// template's latency, where every schedule pays penalties — on both VM
// types, neither the assignment bound, nor Eq. 3 + packingBound, nor the
// heuristic the search runs with exceeds the brute-force optimum-to-go by
// a single grid unit; and the search returns the brute-force optimum, with
// the assignment bound and without.
func TestMonotonicBoundsNeverExceedBruteForceToGo(t *testing.T) {
	env := testEnv(5, 2)
	longest := env.Templates[len(env.Templates)-1].BaseLatency
	var goals []sla.Goal
	for _, d := range []time.Duration{longest / 2, longest - 30*time.Second, longest, longest + 90*time.Second, 2*longest + 45*time.Second, 3 * longest} {
		goals = append(goals, sla.NewMaxLatency(d, env.Templates, sla.DefaultPenaltyRate))
	}
	for _, mult := range []float64{0.8, 1, 1.4, 2.1, 3} {
		goals = append(goals, sla.NewPerQuery(mult, env.Templates, 0.37))
	}
	instances, checked, won := 0, 0, 0
	for gi, goal := range goals {
		s, err := New(graph.NewProblem(env, goal))
		if err != nil {
			t.Fatal(err)
		}
		off, _ := New(graph.NewProblem(env, goal))
		off.exact.assign = false
		ar := newArena()
		for m := 1; m <= 7; m++ {
			for trial := 0; trial < 4; trial++ {
				w := workload.NewSampler(env.Templates, int64(1000*gi+10*m+trial)).Uniform(m)
				instances++
				toGo, states := bruteToGo(s, w)
				for sig, st := range states {
					want := toGo[sig]
					var minFutureLat time.Duration
					eq3 := 0.0
					for tmpl, c := range st.Unassigned {
						eq3 += float64(c) * s.minCost[tmpl]
						minFutureLat += time.Duration(c) * s.minLat[tmpl]
					}
					packing := eq3 + s.packingBound(st, minFutureLat)
					assign := s.assignmentBound(ar, st)
					h := s.heuristic(ar, st, nil, 0, nil)
					for name, b := range map[string]float64{"assignment bound": assign, "Eq. 3 + packing bound": packing, "heuristic": h} {
						if b > want {
							t.Fatalf("%s m=%d trial %d: %s %.12f exceeds the optimum-to-go %.12f at unassigned=%v open=%d wait=%v",
								goal.Key(), m, trial, name, b, want, st.Unassigned, st.OpenType, st.Wait)
						}
					}
					if assign > packing {
						won++
						if !s.exact.assign || !s.exact.penalisable(st.Unassigned) {
							t.Fatalf("%s: the gate hides a state where the assignment bound wins (unassigned=%v)", goal.Key(), st.Unassigned)
						}
					}
					if h != max(packing, assign) && s.exact.assign && s.exact.penalisable(st.Unassigned) {
						t.Fatalf("%s: heuristic %v is not the larger of %v and %v", goal.Key(), h, packing, assign)
					}
					checked++
				}
				want := toGo[s.prob.Signature(s.prob.Start(w))]
				for name, sr := range map[string]*Searcher{"with": s, "without": off} {
					res, err := sr.Solve(w, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if res.Cost != want {
						t.Fatalf("%s m=%d trial %d, %s the assignment bound: search %.12f, brute force %.12f", goal.Key(), m, trial, name, res.Cost, want)
					}
				}
			}
		}
	}
	if won == 0 {
		t.Fatal("the assignment bound never beat Eq. 3 + packing bound: the grid does not exercise it")
	}
	t.Logf("%d instances, %d states, assignment bound the larger at %d", instances, checked, won)
}

// At loose deadlines — the base model's 15 min and the first shifts of it —
// the assignment bound can never beat Eq. 3, and the searcher must know
// without evaluating it: the static gate stays shut.
func TestAssignmentBoundGatedOffAtLooseDeadlines(t *testing.T) {
	env := testEnv(5, 2)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	for _, tc := range []struct {
		wait time.Duration
		open bool
	}{{0, false}, {30 * time.Second, false}, {3 * time.Minute, false}, {3*time.Minute + 30*time.Second, true}, {11*time.Minute + 30*time.Second, true}} {
		s, err := New(graph.NewProblem(env, goal.Shift(tc.wait)))
		if err != nil {
			t.Fatal(err)
		}
		if s.exact.assign != tc.open {
			t.Fatalf("shift %v: static gate open = %v, want %v", tc.wait, s.exact.assign, tc.open)
		}
	}
}

// The assignment bound only prunes: at the serving shape (5 templates, 2 VM
// types, m = 12, the training samples of the serving model), at the waits
// where its gate is open, every sample's schedule and cost are the same
// with the bound and without — so trees, and the stream-backlog cost pin,
// cannot depend on it.
func TestAssignmentBoundDoesNotSteer(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("serving-scale identity gate: skipped under -short and -race")
	}
	env := testEnv(5, 2)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	const n = 500
	workloads := make([]*workload.Workload, n)
	for i := range workloads {
		workloads[i] = servingSample(env.Templates, i)
	}
	for _, wait := range []time.Duration{4*time.Minute + 30*time.Second, 6*time.Minute + 30*time.Second, 9*time.Minute + 30*time.Second, 11 * time.Minute, 11*time.Minute + 30*time.Second} {
		t.Run(fmt.Sprint(wait), func(t *testing.T) {
			prob := graph.NewProblem(env, goal.Shift(wait))
			on, err := New(prob)
			if err != nil {
				t.Fatal(err)
			}
			off, _ := New(prob)
			if !on.exact.assign {
				t.Fatal("gate shut")
			}
			off.exact.assign = false
			statesOn, statesOff := 0, 0
			for i, w := range workloads {
				a, err := on.Solve(w, Options{Cache: NewTranspositionCache()})
				if err != nil {
					t.Fatal(err)
				}
				b, err := off.Solve(w, Options{Cache: NewTranspositionCache()})
				if err != nil {
					t.Fatal(err)
				}
				if a.Cost != b.Cost || !slices.Equal(a.Actions, b.Actions) {
					t.Fatalf("sample %d: with the bound (%v, %v), without (%v, %v)", i, a.Cost, a.Actions, b.Cost, b.Actions)
				}
				statesOn += a.CacheMisses
				statesOff += b.CacheMisses
			}
			if statesOn > statesOff {
				t.Fatalf("the bound generated more states: %d with, %d without", statesOn, statesOff)
			}
			t.Logf("states over %d samples: %d with the bound, %d without", n, statesOn, statesOff)
		})
	}
}

// Replay is the certificate: it accepts a looser goal's path exactly when
// the path still costs the same, and then it is what Solve returns; a path
// the tighter goal charges more is refused, as is a cost a grid unit off.
func TestReplayCertifiesOnlyUnchangedCost(t *testing.T) {
	env := testEnv(5, 2)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	loose, err := New(graph.NewProblem(env, goal))
	if err != nil {
		t.Fatal(err)
	}
	accepted, refused := 0, 0
	for _, wait := range []time.Duration{time.Minute, 4 * time.Minute, 8 * time.Minute} {
		tight, err := New(graph.NewProblem(env, goal.Shift(wait)))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			w := servingSample(env.Templates, i)
			w.Queries = w.Queries[:8]
			old, err := loose.Solve(w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := tight.Solve(w, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want.Cost < old.Cost {
				t.Fatalf("tightening lowered the optimum: %v -> %v", old.Cost, want.Cost)
			}
			got, err := tight.Replay(w, old.Actions, old.Cost, nil)
			if err != nil {
				refused++
				continue
			}
			accepted++
			if got.Cost != want.Cost || !slices.Equal(got.Actions, want.Actions) {
				t.Fatalf("shift %v sample %d: certified (%v, %v), solved (%v, %v)", wait, i, got.Cost, got.Actions, want.Cost, want.Actions)
			}
			if _, err := tight.Replay(w, old.Actions, old.Cost+gridUnit, nil); err == nil {
				t.Fatal("Replay accepted a cost one grid unit off")
			}
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("accepted %d, refused %d: the test needs both", accepted, refused)
	}
}
