package search

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// refNode is an open node the way the search represented its path before
// byte keys: a parent pointer, the edge action and the depth. It is the
// oracle's view of a node; n is the production node carrying the key.
type refNode struct {
	n      *node
	parent *refNode // nil for the start vertex
	act    graph.Action
	depth  int
}

// pathCmp is the comparator the byte keys replaced, kept as the reference:
// it compares the root-to-node action sequences of two nodes
// lexicographically by recursing up the parent chains, aligning depths
// first, and comparing edge actions under actionCmp on the way back down. A
// path that is a proper prefix of the other orders first.
func pathCmp(a, b *refNode) int {
	if a == b || (a.parent == nil && b.parent == nil) {
		return 0
	}
	if a.depth > b.depth {
		if c := pathCmp(a.parent, b); c != 0 {
			return c
		}
		return 1 // b's path is a proper prefix of a's
	}
	if b.depth > a.depth {
		if c := pathCmp(a, b.parent); c != 0 {
			return c
		}
		return -1
	}
	if c := pathCmp(a.parent, b.parent); c != 0 {
		return c
	}
	return actionCmp(a.act, b.act)
}

// appendPathActions materializes the root-to-edge action sequence of the
// path ending with edge (parent, act) — the reference tieLess compared two
// of these element by element under actionCmp.
func appendPathActions(buf []graph.Action, parent *refNode, act graph.Action) []graph.Action {
	if parent == nil {
		return buf
	}
	buf = appendPathActions(buf, parent.parent, parent.act)
	return append(buf, act)
}

// randomPathTree grows a random parent tree of open nodes over the actions
// of k templates and nv VM types, keys built exactly as openNode builds
// them. Every eighth node repeats an earlier node's (parent, action) — an
// equal path reached twice — and every fifth is marked a stitched
// pseudo-goal, which must order by its visible prefix like any other node.
func randomPathTree(rng *rand.Rand, ar *arena, k, nv, size, maxDepth int) []*refNode {
	root := &refNode{n: ar.newNode()}
	nodes := []*refNode{root}
	for len(nodes) < size {
		parent := nodes[len(nodes)-1] // first a spine down to maxDepth
		if len(nodes) > maxDepth {
			parent = nodes[rng.Intn(len(nodes))]
		}
		act := graph.ActionFromLabel(rng.Intn(k+nv), k)
		if len(nodes) > maxDepth && len(nodes)%8 == 0 {
			if twin := nodes[1+rng.Intn(len(nodes)-1)]; twin.parent != nil {
				parent, act = twin.parent, twin.act
			}
		}
		if parent.depth == maxDepth {
			continue
		}
		r := &refNode{n: ar.newNode(), parent: parent, act: act, depth: parent.depth + 1}
		r.n.key = appendChildKey(ar.keySpace(len(parent.n.key)+keyLabelBytes), parent.n, act.Label(k))
		if len(nodes)%5 == 0 {
			r.n.stitch = 1
		}
		nodes = append(nodes, r)
	}
	return nodes
}

// The byte key is exact: for every pair of nodes of a random tree — proper
// prefixes, equal paths reached twice and stitched pseudo-goals included —
// bytes.Compare of the keys has the sign of the recursive reference, the
// canonical open-list order within one eps-band is that comparison, and
// tieLess against a scratch key agrees with the materializing reference.
func TestPathKeyOrderMatchesReference(t *testing.T) {
	for _, env := range []struct{ k, nv int }{{5, 2}, {20, 3}} {
		rng := rand.New(rand.NewSource(int64(31 + env.k)))
		ar := newArena()
		sv := &solver{ar: ar}
		nodes := randomPathTree(rng, ar, env.k, env.nv, 400, 24)
		var bufA, bufB []graph.Action
		deepest, equal, prefixes := 0, 0, 0
		for _, a := range nodes {
			deepest = max(deepest, a.depth)
			for _, b := range nodes {
				want := pathCmp(a, b)
				if got := bytes.Compare(a.n.key, b.n.key); got != want {
					t.Fatalf("k=%d: key order %d, reference %d for paths %v | %v", env.k, got, want,
						appendPathActions(nil, a.parent, a.act), appendPathActions(nil, b.parent, b.act))
				}
				if got := nodeLessCanonical(a.n, b.n); got != (want < 0) {
					t.Fatalf("k=%d: nodeLessCanonical %v within one band, reference order %d", env.k, got, want)
				}
				if a != b && want == 0 {
					equal++
				}
				if a.depth < b.depth && bytes.HasPrefix(b.n.key, a.n.key) {
					prefixes++
				}
				if a.parent == nil {
					continue
				}
				// a as a candidate edge (parent, act) arriving at b's state.
				bufA = appendPathActions(bufA[:0], a.parent, a.act)
				bufB = appendPathActions(bufB[:0], b.parent, b.act)
				if got, want := sv.tieLess(a.parent.n, a.act.Label(env.k), b.n), slices.CompareFunc(bufA, bufB, actionCmp) < 0; got != want {
					t.Fatalf("k=%d: tieLess %v, materializing reference %v", env.k, got, want)
				}
			}
		}
		if deepest != 24 || equal == 0 || prefixes == 0 {
			t.Fatalf("k=%d: tree reached depth %d with %d equal-path pairs and %d proper-prefix pairs; the cases are not covered", env.k, deepest, equal, prefixes)
		}
	}
}

// Label order is actionCmp order — what lets a path key stand in for the
// action sequence — on every action a search can meet. Those are the
// actions Problem.AppendActions emits, each carrying only the field its
// kind reads (checked below on random walks of two environments), and the
// actions of persisted sample paths and cache suffixes, which are
// normalised to that same form where they are decoded (core.decodeAction,
// pinned by core's TestDecodeNormalisesStrayActionFields): a Place with a
// stray VMType or a Startup with a stray Template, which actionCmp would
// tell apart and a label cannot, never reaches the search.
func TestLabelOrderIsActionOrder(t *testing.T) {
	for _, shape := range []struct{ k, nv int }{{5, 2}, {20, 3}} {
		env := testEnv(shape.k, shape.nv)
		prob := graph.NewProblem(env, sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
		rng := rand.New(rand.NewSource(7))
		seen := map[graph.Action]bool{}
		for walk := 0; walk < 200; walk++ {
			st := prob.Start(workload.NewSampler(env.Templates, int64(walk)).Uniform(2 * shape.k))
			for !st.IsGoal() {
				acts := prob.AppendActions(nil, st)
				for _, a := range acts {
					if a != graph.ActionFromLabel(a.Label(shape.k), shape.k) {
						t.Fatalf("AppendActions emitted %+v, which its label does not round-trip", a)
					}
					seen[a] = true
				}
				st = prob.Apply(st, acts[rng.Intn(len(acts))])
			}
		}
		if len(seen) != shape.k+shape.nv {
			t.Fatalf("random walks met %d of %d actions", len(seen), shape.k+shape.nv)
		}
		for x := range seen {
			for y := range seen {
				if got, want := actionCmp(x, y), cmp.Compare(x.Label(shape.k), y.Label(shape.k)); got != want {
					t.Fatalf("actionCmp(%+v, %+v) = %d, label order %d", x, y, got, want)
				}
			}
		}
	}
}
