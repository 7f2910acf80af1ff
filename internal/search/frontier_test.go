package search

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// The bucket frontier must pop in exactly the (f, remaining) order the
// binary heap it replaced used, for any quantum — quantization may only
// affect performance, never order — including pushes below the cursor
// (branch-and-bound re-openings) and f-values past the clamped last bucket.
func TestBucketFrontierExactOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, quantum := range []float64{1e-4, 0.01, 1, 1e6} {
		var q bucketFrontier
		q.init(0, quantum, false)
		var ref []*node
		push := func(n *node) {
			q.push(n)
			ref = append(ref, n)
		}
		// Interleave pushes and pops, with some pushes deliberately below
		// the current minimum (f shrinking over time).
		for wave := 0; wave < 6; wave++ {
			for i := 0; i < 200; i++ {
				f := float64(rng.Intn(50)) * 0.37 * float64(6-wave)
				push(&node{f: f, remaining: int32(rng.Intn(5))})
			}
			for i := 0; i < 120; i++ {
				n := q.pop()
				if n == nil {
					t.Fatalf("wave %d: frontier empty with %d reference nodes left", wave, len(ref))
				}
				sort.SliceStable(ref, func(a, b int) bool { return nodeLess(ref[a], ref[b]) })
				if n.f != ref[0].f || n.remaining != ref[0].remaining {
					t.Fatalf("wave %d pop %d: got (f=%v,r=%d), want (f=%v,r=%d)", wave, i, n.f, n.remaining, ref[0].f, ref[0].remaining)
				}
				ref = ref[1:]
			}
		}
		for q.pop() != nil {
		}
		if q.size != 0 {
			t.Fatalf("size %d after draining", q.size)
		}
	}
}

// With canonical = true the frontier must pop in (f, path) order for any
// quantum: f compared exactly — grid values one grid unit apart are
// different costs, equal ones tie — and paths by the recursive reference
// comparator the byte keys replaced (pathkey_test.go), over a random tree
// with prefixes, repeated paths and pseudo-goals.
func TestBucketFrontierExactOrderCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	ar := newArena()
	tree := randomPathTree(rng, ar, 5, 2, 600, 24)
	for _, quantum := range []float64{1e-4, 0.01, 1, 1e6} {
		var q bucketFrontier
		q.init(0, quantum, true)
		var ref []*refNode
		next := 0
		for wave := 0; wave < 3; wave++ {
			for i := 0; i < 200; i++ {
				r := tree[next%len(tree)]
				next++
				r.n.f = toGrid(float64(rng.Intn(12))*0.37*float64(3-wave)) + float64(rng.Intn(3))*gridUnit
				q.push(r.n)
				ref = append(ref, r)
			}
			for i := 0; i < 120; i++ {
				n := q.pop()
				sort.SliceStable(ref, func(a, b int) bool {
					if ref[a].n.f != ref[b].n.f {
						return ref[a].n.f < ref[b].n.f
					}
					return pathCmp(ref[a], ref[b]) < 0
				})
				if n.f != ref[0].n.f || !bytes.Equal(n.key, ref[0].n.key) {
					t.Fatalf("quantum %g wave %d pop %d: got (f=%v,key=%x), want (f=%v,key=%x)", quantum, wave, i, n.f, n.key, ref[0].n.f, ref[0].n.key)
				}
				ref = ref[1:]
			}
		}
		q.release()
	}
}

// The closed-form round-robin completion sum behind averageBound must match
// the materialized reference computation it replaced.
func TestRoundRobinSumCMatchesReference(t *testing.T) {
	env := testEnv(6, 2)
	goal := sla.NewAverage(10*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	prob := graph.NewProblem(env, goal)
	s, err := New(prob)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		st := prob.Start(workload.NewSampler(env.Templates, int64(trial)).Uniform(1 + rng.Intn(14)))
		// Reference: materialize the descending latency vector.
		var lats []time.Duration
		for _, tmpl := range s.latOrderDesc {
			for c := st.Unassigned[tmpl]; c > 0; c-- {
				lats = append(lats, s.minLat[tmpl])
			}
		}
		for m := 1; m <= len(lats)+1; m++ {
			var want time.Duration
			for i, l := range lats {
				want += time.Duration((i/m)+1) * l
			}
			if got := s.roundRobinSumC(st, m); got != want {
				t.Fatalf("trial %d m=%d: closed form %v, reference %v", trial, m, got, want)
			}
		}
	}
}
