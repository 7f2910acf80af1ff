// Package search finds minimum-cost schedules: it runs A* over the
// scheduling graph (§4.3) with the admissible heuristic of Eq. 3 for
// monotonically increasing goals, an admissible penalty-corrected variant
// for non-monotonic goals, and the adaptive-A* heuristic reuse of §5 for
// re-solving a sample workload under a tightened goal (Lemma 5.1; applied
// to monotonic goals only — see Reuse for why it is unsound under
// refundable penalties).
//
// A* is complete and, with an admissible heuristic, exact — so this package
// also serves as the "Optimal" comparator of the paper's evaluation (§7.2).
//
// Non-monotonic goals (Average, Percentile) admit placement edges with
// negative weight: a short query can lower the mean or percentile penalty
// by more than it costs to process. The search therefore runs as
// best-first branch-and-bound: nodes are re-opened when a cheaper path is
// found, a goal's cost becomes an incumbent bound, and the search stops when
// the cheapest open f-value cannot beat the incumbent. For monotonic goals
// the heuristic is consistent and this degenerates to plain A* — run in
// exact arithmetic on a fixed cost grid (grid.go), so that its result is
// the lexicographically least optimal schedule and nothing else.
//
// Three engine-level optimizations keep the training-side searches fast
// (see DESIGN.md, "The search engine"): states and their slices are
// bump-allocated from a pooled graph.Arena, the open list is a monotone
// bucket queue over quantized f-costs (bucketFrontier), and solved suffix
// subproblems transfer between searches of one Problem through a
// TranspositionCache.
package search

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Step is one decision along an optimal path: the vertex the decision was
// made at and the edge that was taken. Feature extraction consumes these
// (§4.4: each decision maps to features of its origin vertex).
type Step struct {
	State  *graph.State
	Action graph.Action
}

// Result is the outcome of a search.
type Result struct {
	// Cost is the total cost (Eq. 1) of the best complete schedule found.
	Cost float64
	// Actions is the edge sequence from the start vertex to the goal.
	Actions []graph.Action
	// Path pairs each decision with the vertex it was made at. The states
	// are materialized by replaying Actions from the start vertex, so
	// their accumulators are exact even where the search shared a static
	// accumulator internally (see graph.ApplyArena). Nil from a searcher
	// made by WithoutPaths.
	Path []Step
	// Expanded counts vertex expansions (search effort).
	Expanded int
	// Optimal is false only if the expansion limit interrupted the
	// search before optimality was proven.
	Optimal bool
	// CacheHits and CacheMisses count transposition-cache lookups made by
	// this search (zero when no cache was used).
	CacheHits, CacheMisses int
	// Closed records, per interned state signature, the best path cost
	// with which the state was reached. Adaptive modeling (§5) feeds this
	// into the heuristic of a re-search under a tightened goal.
	Closed *Closed
}

// Schedule materializes the schedule the result's action path builds.
func (r *Result) Schedule() *schedule.Schedule { return graph.BuildSchedule(r.Actions) }

// Reuse is the information adaptive A* (§5) carries from a completed search
// to a re-search of the same workload under a stricter goal: the old optimal
// cost and the interned per-signature path costs.
// h'(v) = max(h(v), OldCost − g_old(v)) never overestimates under the
// stricter goal (Lemma 5.1) — provided every edge cost weakly increases
// under the tightening, which holds for monotonic goals only. Non-monotonic
// goals (Average, Percentile) refund accumulated penalty on later
// placements, so a tightened goal can make an edge cheaper, g_old(v) can
// exceed g_new(v), and the reuse bound would overestimate and prune the
// true optimum. The search therefore applies Reuse only to monotonic goals
// and silently ignores it otherwise — as it does a Reuse whose OldCost is
// not a value of the cost grid (grid.go): one decoded from a checkpoint
// that predates the grid, whose g-values are last-bit off today's.
type Reuse struct {
	// OldCost is cost(R, g): the optimal cost under the old goal.
	OldCost float64
	// Closed holds g_old(v) per interned signature.
	Closed *Closed
}

// Options tunes a search.
type Options struct {
	// MaxExpansions bounds search effort; 0 means unlimited. If the
	// limit interrupts the search, the best goal found so far (if any)
	// is returned with Optimal=false.
	MaxExpansions int
	// Reuse, when non-nil, strengthens the heuristic with adaptive-A*
	// information from a previous search of the same workload under a
	// looser goal.
	Reuse *Reuse
	// KeepClosed records Closed in the result (needed when the result
	// will later seed a Reuse). It costs memory proportional to the
	// number of distinct states seen.
	KeepClosed bool
	// IncumbentCost seeds branch-and-bound with a known achievable cost
	// (e.g. from a heuristic schedule); 0 means none. Nodes that cannot
	// beat it are pruned immediately. If the search finds nothing
	// cheaper, it reports ErrSeedIsOptimal: the seed schedule was
	// already optimal (within eps).
	IncumbentCost float64
	// Cache, when non-nil, consults (and prunes through) the
	// cross-search transposition cache: a generated state whose
	// signature has a solved suffix stitches the stored completion
	// instead of expanding the subtree. Only canonical searches (a
	// monotonic goal, no IncumbentCost) use it; see TranspositionCache
	// and solver.canonical. The cache must have been populated only from
	// searches of the same Problem.
	Cache *TranspositionCache
	// Record, when non-nil and the search is canonical, receives one
	// solved-suffix record per state on the returned optimal path (only
	// when optimality was proven), less those already held by the cache a
	// bound Record is committed to (PendingSuffixes.Into). A seeded
	// search's path need not be the canonical completion a cache holds,
	// so it records nothing. Publish them with TranspositionCache.Commit;
	// worker pools commit at deterministic barriers.
	Record *PendingSuffixes
}

// ErrSeedIsOptimal is returned when branch-and-bound proves no schedule
// beats the seeded incumbent cost.
var ErrSeedIsOptimal = errors.New("search: seeded incumbent is optimal")

// ErrNoSchedule is returned when no complete schedule exists (e.g. a
// template no VM type can run).
var ErrNoSchedule = errors.New("search: no complete schedule exists")

const eps = 1e-9

// keyLabelBytes is the width of one edge in a node's path key: the edge's
// graph.Action.Label, big-endian. New refuses environments with more labels
// than the width holds.
const keyLabelBytes = 2

// node is an entry of the open list. States are identified by the dense id
// their signature interns to, not by the signature string itself. A node
// holds no parent pointer and no action: its path is its key.
type node struct {
	state *graph.State
	// key is the root-to-node action path, keyLabelBytes per edge, carved
	// from the arena's key slab (child key = parent key + one label). The
	// canonical order compares keys bytewise (nodeLessCanonical) and the
	// result's Actions are decoded from the incumbent's key.
	key []byte
	g   float64
	f   float64
	id  uint32
	// remaining caches state.RemainingQueries() at node creation: the
	// legacy open-frontier tie-break reads it on every comparison, and
	// zero is the goal test of a popped node.
	remaining int32
	// stitch, when non-zero, marks a pseudo-goal created by a canonical
	// transposition-cache hit: arena.stitches[stitch-1] holds the cached
	// suffix completing this node's prefix, and f holds the full
	// completion cost. Pseudo-goals are never expanded; popping one ends
	// a canonical search exactly like popping a real goal.
	stitch int32
}

// Searcher solves scheduling problems. It precomputes the per-template
// cheapest processing costs used by the Eq. 3 heuristic.
//
// A Searcher is safe for concurrent use: all precomputed tables are
// read-only after New, and each Solve call draws its mutable scratch state
// (signature buffer, intern table, state/node arenas, open frontier) from
// the process-wide arena pool so that concurrent searches — the training
// worker pool runs one per worker — never share buffers.
type Searcher struct {
	prob         *graph.Problem
	minCost      []float64
	minLat       []time.Duration
	latOrderDesc []int
	minStartup   float64 // cheapest VM start-up fee, used by every bound

	// gridded marks a monotonic goal, whose searches price edges on the
	// cost grid (grid.go). The tables below are what the hot path reads
	// instead of the Problem: nv VM types, the template×VM-type latency
	// matrix (negative = cannot run) and processing costs, row-major, and
	// the start-up fees — costs rounded to the grid iff gridded, so
	// minCost and minStartup, their minima, are built from the same
	// rounded components the edges charge.
	gridded bool
	nv      int
	lat     []time.Duration
	exec    []float64
	startup []float64
	exact   exactTables // gridded searchers only

	// noPath marks a searcher made by WithoutPaths.
	noPath bool
	// emptyAcc is the goal's empty accumulator, shared by the arena start
	// vertex of every search and path-free walk (graph.StartArena).
	emptyAcc sla.Accumulator
}

// New returns a Searcher for the problem. It returns an error if some
// template cannot run on any VM type (no complete schedule could exist).
func New(prob *graph.Problem) (*Searcher, error) {
	if n := len(prob.Env.Templates) + len(prob.Env.VMTypes); n > 1<<(8*keyLabelBytes) {
		return nil, fmt.Errorf("search: %d action labels exceed the %d a path key encodes", n, 1<<(8*keyLabelBytes))
	}
	k, nv := len(prob.Env.Templates), len(prob.Env.VMTypes)
	s := &Searcher{
		prob:       prob,
		minCost:    make([]float64, k),
		minLat:     make([]time.Duration, k),
		minStartup: math.Inf(1),
		gridded:    prob.Goal.Monotonic(),
		nv:         nv,
		lat:        make([]time.Duration, k*nv),
		exec:       make([]float64, k*nv),
		startup:    make([]float64, nv),
		emptyAcc:   sla.NewAccumulator(prob.Goal),
	}
	// price puts a cost on the grid for monotonic goals and leaves it
	// alone otherwise.
	price := func(c float64) float64 {
		if s.gridded {
			return toGrid(c)
		}
		return c
	}
	for t := 0; t < k; t++ {
		s.minCost[t] = math.Inf(1)
		s.minLat[t], _ = prob.Env.FastestLatency(t)
		for vt, vm := range prob.Env.VMTypes {
			lat, ok := prob.Env.Latency(t, vt)
			if !ok {
				s.lat[t*nv+vt] = -1
				continue
			}
			s.lat[t*nv+vt] = lat
			s.exec[t*nv+vt] = price(vm.RunningCost(lat))
			s.minCost[t] = math.Min(s.minCost[t], s.exec[t*nv+vt])
		}
		if math.IsInf(s.minCost[t], 1) {
			return nil, fmt.Errorf("%w: template %d runs on no VM type", ErrNoSchedule, t)
		}
	}
	for vt, vm := range prob.Env.VMTypes {
		s.startup[vt] = price(vm.StartupCost)
		s.minStartup = math.Min(s.minStartup, s.startup[vt])
	}
	if s.gridded {
		s.initExact()
	}
	s.initLatOrder()
	return s, nil
}

// WithoutPaths returns a searcher for the same problem whose Solve and
// Replay results carry no Path, only Actions. The walk that checks a
// result's cost and records its suffixes then runs on the search arena's
// states instead of materializing one heap State per step. Nor is an
// action path copied: Solve's suffix records share the Actions it
// returns, and Replay returns the caller's own slice as Actions and
// records suffixes of it, so neither slice may be mutated afterwards. A
// model build, which extracts its training rows from the actions and
// never writes them, is what it is for; a caller that reads Path or
// mutates Actions must use the searcher New returned, whose results hold
// private copies.
func (s *Searcher) WithoutPaths() *Searcher {
	c := *s
	c.noPath = true
	return &c
}

// nodeChunkSize and keySlabSize are the bump-allocation granularities of a
// search arena's node blocks and path-key slabs.
const (
	nodeChunkSize = 1024
	keySlabSize   = 1 << 16
)

// arena is the per-search scratch state: one worker owns one arena for the
// duration of a Solve, so searches allocate signature bytes, states, nodes,
// path keys, and frontier slots from reused memory instead of churning the
// allocator per expanded edge.
//
// Nothing in an arena belongs to one Problem: every buffer is sized by the
// search that uses it, and a released arena holds no state, node or key of
// the search before. So one pool serves every Searcher in the process, and
// a build — which makes a new Searcher — starts on the frontier buckets,
// intern slots, node and state chunks and key slabs earlier builds grew.
type arena struct {
	sigBuf []byte
	keyBuf []byte // candidate path key for tieLess
	table  *InternTable
	best   []*node // dense state id -> best known node
	open   bucketFrontier
	states graph.Arena    // bump-allocated successor states
	actBuf []graph.Action // per-expansion action scratch
	// costs and ends are buildPath's per-step scratch on a path-free walk.
	costs []float64
	ends  []int
	// stitches holds the cached suffixes behind pseudo-goal nodes
	// (node.stitch indexes it, 1-based).
	stitches [][]graph.Action
	bigs     []time.Duration
	// dom is built by the first Percentile search to use the arena and
	// kept across searches of other goals; only a Percentile search resets
	// and releases it.
	dom    *dominanceIndex
	chunks [][]node
	chunk  int // index of the chunk newNode bump-allocates from
	used   int // nodes used within that chunk
	// keys are the pointer-free slabs node keys are carved from; they are
	// rewound by reset and need no release.
	keys    [][]byte
	keySlab int // index of the slab keySpace carves from
	keyOff  int // bytes used within that slab
}

// arenas is the process-wide pool of released arenas (see arena).
var arenas = sync.Pool{New: func() any { return newArena() }}

func newArena() *arena {
	return &arena{table: NewInternTable()}
}

// reset readies the arena for a fresh search, retaining all capacity.
func (a *arena) reset() {
	a.sigBuf = a.sigBuf[:0]
	a.best = a.best[:0]
	a.stitches = a.stitches[:0]
	a.chunk, a.used = 0, 0
	a.keySlab, a.keyOff = 0, 0
	a.states.Reset()
	a.table.Reset()
}

// release drops every reference the finished search left in the arena —
// node states and keys, best/open entries — so an idle pooled arena does
// not pin the search graph in memory until its next use.
func (a *arena) release() {
	for i := 0; i <= a.chunk && i < len(a.chunks); i++ {
		c := a.chunks[i]
		n := nodeChunkSize
		if i == a.chunk {
			n = a.used
		}
		clear(c[:n])
	}
	clear(a.best)
	a.best = a.best[:0]
	clear(a.stitches)
	a.stitches = a.stitches[:0]
	a.open.release()
	a.states.Release()
	a.chunk, a.used = 0, 0
}

// newNode bump-allocates a node. It is already zero: release cleared every
// node the previous search used.
func (a *arena) newNode() *node {
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]node, nodeChunkSize))
	}
	n := &a.chunks[a.chunk][a.used]
	if a.used++; a.used == nodeChunkSize {
		a.chunk++
		a.used = 0
	}
	return n
}

// keySpace carves an empty byte slice of capacity n from the key slabs.
func (a *arena) keySpace(n int) []byte {
	if n > keySlabSize {
		return make([]byte, 0, n)
	}
	if a.keySlab < len(a.keys) && a.keyOff+n > keySlabSize {
		a.keySlab++
		a.keyOff = 0
	}
	if a.keySlab == len(a.keys) {
		a.keys = append(a.keys, make([]byte, keySlabSize))
	}
	s := a.keys[a.keySlab][a.keyOff : a.keyOff : a.keyOff+n]
	a.keyOff += n
	return s
}

// appendChildKey appends the path key of the edge (parent, label) to buf:
// the parent's key plus one label. parent == nil denotes the start vertex,
// whose path is empty.
func appendChildKey(buf []byte, parent *node, label int) []byte {
	if parent == nil {
		return buf
	}
	buf = append(buf, parent.key...)
	return append(buf, byte(label>>8), byte(label))
}

// Problem returns the problem the searcher was built for.
func (s *Searcher) Problem() *graph.Problem { return s.prob }

// heuristic returns an admissible estimate of the cost-to-go from state st.
// For monotonic goals it is Eq. 3 — the cheapest possible processing cost of
// every unassigned query — plus packingBound, or assignmentBound where that
// is larger; every term is a grid value, so the estimate is exact-admissible
// (grid.go). For non-monotonic goals the accumulated penalty may still be
// refunded by future placements, so the admissible form subtracts it (the
// final penalty is at least zero). Adaptive reuse takes the max with
// OldCost − g_old (Lemma 5.1), found under sig and its hash
// sigHash == hashSig(sig); Solve hands a reuse over only where it is sound.
// Scratch is drawn from ar.
func (s *Searcher) heuristic(ar *arena, st *graph.State, sig []byte, sigHash uint32, reuse *Reuse) float64 {
	h := 0.0
	remaining := 0
	var minFutureLat time.Duration
	for t, c := range st.Unassigned {
		h += float64(c) * s.minCost[t]
		remaining += c
		minFutureLat += time.Duration(c) * s.minLat[t]
	}
	if !s.gridded {
		// The accumulated penalty may be partially refunded by future
		// placements, but never below an admissible lower bound on
		// the final penalty.
		switch goal := s.prob.Goal.(type) {
		case sla.Average:
			if remaining > 0 {
				h += s.averageBound(st, goal, remaining) - st.Acc.Penalty()
			}
		case sla.Percentile:
			bound := sla.MinFinalPenalty(goal, st.Acc, remaining, minFutureLat)
			if remaining > 0 {
				if fees := s.percentileBound(ar, st, goal, remaining); fees > bound {
					bound = fees
				}
			}
			h += bound - st.Acc.Penalty()
		default:
			h += sla.MinFinalPenalty(s.prob.Goal, st.Acc, remaining, minFutureLat) - st.Acc.Penalty()
		}
	} else if remaining > 0 {
		h += s.packingBound(st, minFutureLat)
		if s.exact.assign && s.exact.penalisable(st.Unassigned) {
			if a := s.assignmentBound(ar, st); a > h {
				h = a
			}
		}
	}
	if reuse != nil {
		if gOld, ok := reuse.Closed.lookupHash(sig, sigHash); ok {
			if adaptive := reuse.OldCost - gOld; adaptive > h {
				h = adaptive
			}
		}
	}
	return h
}

// packingBound lower-bounds the future start-up and penalty cost for
// monotonic goals by relaxing query granularity to divisible work. The open
// VM can absorb room−Wait more work penalty-free and each new VM absorbs
// `room`; work spilling past the absorbed room appears in the violation
// period of at least the last query of its VM, so for k additional VMs the
// future extra cost is at least
//
//	k × min-startup + P(max(0, W − openRoom − k×room))
//
// where W is the minimum total future execution time and P the grid
// penalty of a violation period (overagePenalty: the queries' violation
// periods sum to at least the spilled work, and P is subadditive, so their
// penalties sum to at least P of it). The bound takes the best k, which a
// completion is free to match but never beat.
func (s *Searcher) packingBound(st *graph.State, minFutureLat time.Duration) float64 {
	room, _, ok := sla.FutureRoom(s.prob.Goal, st.Unassigned)
	if !ok || room <= 0 {
		return 0
	}
	openRoom := time.Duration(0)
	if st.OpenType != graph.NoVM && room > st.Wait {
		openRoom = room - st.Wait
	}
	kLow := 0.0
	spill := minFutureLat - openRoom
	if st.OpenType == graph.NoVM {
		// No VM is rented yet: at least one start-up fee is certain.
		spill = minFutureLat
		kLow = 1
	}
	if spill <= 0 && kLow == 0 {
		return 0
	}
	// The cost is convex in k, so the best k is kLow or one of the two
	// integers around the penalty-free crossover point.
	kCross := float64(spill) / float64(room)
	best := math.Inf(1)
	for _, k := range [3]float64{kLow, math.Floor(kCross), math.Ceil(kCross)} {
		if k < kLow {
			continue
		}
		cost := k * s.minStartup
		if residual := spill - time.Duration(k*float64(room)); residual > 0 {
			cost += s.overagePenalty(residual)
		}
		if cost < best {
			best = cost
		}
	}
	return best
}

// solver holds the mutable state of one Solve call.
type solver struct {
	s     *Searcher
	ar    *arena
	reuse *Reuse
	// dom is the arena's dominance index in a Percentile search, else nil.
	dom *dominanceIndex

	cache     *TranspositionCache
	hits      int
	misses    int
	incumbent *node
	// stitched is the cached suffix completing the incumbent; nil when
	// the incumbent is a goal node reached by expansion.
	stitched      []graph.Action
	incumbentCost float64
	seeded        bool
	// canonical marks a search whose result must be a pure function of
	// (problem, workload) — invariant to transposition-cache contents,
	// adaptive-reuse heuristic strength, which looser goal a replayed path
	// came from, and worker parallelism. It holds for every monotonic,
	// unseeded search and is what lets a warm retrain (cache and Closed
	// sets carried over from a prior epoch) reproduce a cold retrain, and a
	// tightened build replay a looser goal's paths (Replay), bit for bit.
	//
	// The canonical schedule is the lexicographically least action
	// sequence (under actionCmp) among the complete schedules of minimum
	// cost. Cost is exact here: every edge weight is a value of the cost
	// grid (grid.go), sums of grid values do not depend on the order of
	// summation, and g, h and f are compared for equality, never within a
	// tolerance — "minimum cost" means one number. The search finds the
	// schedule without enumerating its ties: the open list pops in
	// (f, lex path) order, transposition-cache hits become pseudo-goal
	// frontier nodes (carrying prefix + cached suffix at the full
	// completion cost) instead of incumbent adoptions, and the first goal
	// or pseudo-goal popped is the canonical schedule. The argument: the
	// heuristic is built from the rounded components the edges charge, so
	// every prefix of the canonical schedule S has f ≤ cost(S) under every
	// heuristic the search may run with, and pops before any lex-greater
	// goal of that cost; a cached suffix is itself the canonical completion
	// of its state (recorded from canonical paths, merged lex-least in
	// Commit), so a pseudo-goal either realizes S or diverges from it in
	// its visible prefix and pops after.
	//
	// Dedupe keeps the lex-least among equal-cost paths per state and
	// re-opens on replacement; since a lex-smaller prefix maps every
	// completion to a lex-smaller completion at the same cost, the
	// canonical schedule's prefixes are never evicted.
	canonical bool
}

// tieLess reports whether the candidate path (parent, label) is
// lexicographically smaller than open node b's path. Both paths reach the
// same state at the same cost; the canonical search keeps the lex-least.
func (sv *solver) tieLess(parent *node, label int, b *node) bool {
	ar := sv.ar
	ar.keyBuf = appendChildKey(ar.keyBuf[:0], parent, label)
	return bytes.Compare(ar.keyBuf, b.key) < 0
}

// consider processes one arrival at a state: interns its signature,
// deduplicates against the best-known node, applies dominance pruning,
// stitches a cached suffix, or pushes an open node. The signature is hashed
// once, for the intern table, the cache and the reuse set alike. The state
// was reached over the edge (parent, label); parent is nil for the start
// vertex.
func (sv *solver) consider(st *graph.State, parent *node, label int, g float64, remaining int32) {
	ar := sv.ar
	ar.sigBuf = sv.s.prob.AppendSignature(ar.sigBuf[:0], st)
	sigHash := hashSig(ar.sigBuf)
	id, fresh := ar.table.internHash(ar.sigBuf, sigHash)
	if fresh {
		ar.best = append(ar.best, nil)
	}
	if b := ar.best[id]; b != nil {
		if sv.canonical {
			// Keep the cheapest path; among equal-cost paths keep the
			// lexicographically least, re-opening the state so its
			// subtree re-derives with the smaller prefix (the cascade
			// terminates: the kept prefix strictly lex-decreases).
			if b.g < g || (b.g == g && !sv.tieLess(parent, label, b)) {
				return
			}
		} else if b.g <= g+eps {
			return
		}
	}
	if sv.dom != nil {
		if sv.dom.dominated(st, g) {
			return
		}
		sv.dom.insert(st, g)
	}
	if sv.cache != nil {
		if e, ok := sv.cache.lookupHash(ar.sigBuf, sigHash); ok {
			sv.hits++
			// Push a pseudo-goal at the full completion cost instead
			// of adopting an incumbent: the pop order decides
			// canonically among all completions.
			cn := sv.openNode(st, id, parent, label, g, g+e.cost, remaining)
			ar.stitches = append(ar.stitches, e.actions)
			cn.stitch = int32(len(ar.stitches))
			ar.open.push(cn)
			return
		}
		sv.misses++
	}
	f := g + sv.s.heuristic(ar, st, ar.sigBuf, sigHash, sv.reuse)
	if f >= sv.incumbentCost-eps {
		return // bound: cannot beat the incumbent
	}
	ar.open.push(sv.openNode(st, id, parent, label, g, f, remaining))
}

// openNode allocates the node for a state reached over the edge (parent,
// label) and records it as the state's best. Fields are set one by one into
// the arena's already-zero node; the key is the parent's plus one label
// (none for the start vertex).
func (sv *solver) openNode(st *graph.State, id uint32, parent *node, label int, g, f float64, remaining int32) *node {
	ar := sv.ar
	cn := ar.newNode()
	cn.state = st
	if parent != nil {
		cn.key = appendChildKey(ar.keySpace(len(parent.key)+keyLabelBytes), parent, label)
	}
	cn.g, cn.f = g, f
	cn.id = id
	cn.remaining = remaining
	ar.best[id] = cn
	return cn
}

// Solve finds a minimum-cost complete schedule for the workload. It is safe
// to call concurrently from multiple goroutines on one Searcher.
func (s *Searcher) Solve(w *workload.Workload, opts Options) (*Result, error) {
	if len(w.Templates) != len(s.prob.Env.Templates) {
		return nil, fmt.Errorf("search: workload has %d templates, problem expects %d", len(w.Templates), len(s.prob.Env.Templates))
	}
	ar := arenas.Get().(*arena)
	ar.reset()
	sv := solver{s: s, ar: ar, incumbentCost: math.Inf(1)}
	if _, isPct := s.prob.Goal.(sla.Percentile); isPct {
		if ar.dom == nil {
			ar.dom = newDominanceIndex()
		}
		sv.dom = ar.dom
		sv.dom.reset()
	}
	defer func() {
		ar.release()
		if sv.dom != nil {
			sv.dom.release()
		}
		arenas.Put(ar)
	}()
	if opts.Reuse != nil && s.gridded && onGrid(opts.Reuse.OldCost) {
		// Sound for monotonic goals only: non-monotonic penalties are
		// refundable, so a tightened goal can lower an edge's cost and
		// OldCost − g_old(v) would overestimate (see Reuse). A cost off
		// the grid was decoded from a checkpoint the old float arithmetic
		// wrote: its g_old differ from today's in the last bits, enough to
		// overestimate on a plateau, so that reuse is ignored as well.
		sv.reuse = opts.Reuse
	}
	if opts.IncumbentCost > 0 {
		sv.incumbentCost = opts.IncumbentCost + eps
		sv.seeded = true
	}
	// Every monotonic, unseeded search is canonical (see solver.canonical):
	// its result is invariant to cache contents and heuristic strength.
	// Seeded searches keep the legacy incumbent-bound semantics so
	// ErrSeedIsOptimal still means "nothing strictly beats the seed".
	sv.canonical = s.gridded && !sv.seeded
	// The cache holds canonical completions only, so only a canonical
	// search may stitch from it or record into it.
	rec := opts.Record
	if sv.canonical {
		sv.cache = opts.Cache
	} else {
		rec = nil
	}
	// f-costs are in cents; a quantum of a fraction of the cheapest
	// start-up fee separates the packing plateaus the bounds create while
	// keeping the bucket count moderate. Outside canonical searches it also
	// picks the pop order of exact ties (see bucketFrontier), so changing it
	// can change an Average or Percentile model.
	quantum := s.minStartup / 8
	if !(quantum > 1e-4) {
		quantum = 1e-4
	}
	ar.open.init(0, quantum, sv.canonical)

	numTemplates := len(s.prob.Env.Templates)
	start := s.prob.StartArena(&ar.states, w, s.emptyAcc)
	sv.consider(start, nil, 0, 0, int32(start.RemainingQueries()))

	expanded := 0
	optimal := true
	for {
		n := ar.open.pop()
		if n == nil {
			break
		}
		if sv.canonical {
			if ar.best[n.id] != n {
				continue // superseded by a cheaper or lex-smaller path
			}
			if n.stitch != 0 || n.remaining == 0 {
				// First goal or pseudo-goal popped: by the canonical
				// pop order this is the lex-least schedule in the
				// minimal cost band, regardless of what the cache or
				// the heuristic contributed.
				sv.incumbent, sv.incumbentCost = n, n.f
				if n.stitch != 0 {
					sv.stitched = ar.stitches[n.stitch-1]
				}
				break
			}
		} else {
			if b := ar.best[n.id]; b != nil && b.g < n.g-eps {
				continue // stale entry superseded by a cheaper path
			}
			if n.f >= sv.incumbentCost-eps && (sv.incumbent != nil || sv.seeded) {
				// Nothing in the open list can beat the incumbent:
				// every other open node has f >= n.f, and f never
				// overestimates the cost of completions.
				break
			}
			if n.remaining == 0 {
				if n.g < sv.incumbentCost {
					sv.incumbent, sv.incumbentCost = n, n.g
				}
				continue
			}
		}
		expanded++
		if opts.MaxExpansions > 0 && expanded > opts.MaxExpansions {
			optimal = false
			break
		}
		ar.actBuf = s.prob.AppendActions(ar.actBuf[:0], n.state)
		for _, a := range ar.actBuf {
			cost, ok := s.edgeCost(n.state, a)
			if !ok {
				continue
			}
			child := s.prob.ApplyArena(&ar.states, n.state, a)
			remaining := n.remaining
			if a.Kind == graph.Place {
				remaining-- // a placement assigns exactly one query
			}
			sv.consider(child, n, a.Label(numTemplates), n.g+cost, remaining)
		}
	}
	if sv.cache != nil {
		sv.cache.addCounters(sv.hits, sv.misses)
	}

	if sv.incumbent == nil {
		if !optimal {
			return nil, fmt.Errorf("search: expansion limit %d hit before any schedule was found", opts.MaxExpansions)
		}
		if sv.seeded {
			return nil, ErrSeedIsOptimal
		}
		return nil, ErrNoSchedule
	}

	// Assemble the action path: the incumbent's key decoded label by
	// label, then the stitched cache suffix (if any).
	key := sv.incumbent.key
	actions := make([]graph.Action, 0, len(key)/keyLabelBytes+len(sv.stitched))
	for i := 0; i < len(key); i += keyLabelBytes {
		actions = append(actions, graph.ActionFromLabel(int(key[i])<<8|int(key[i+1]), numTemplates))
	}
	actions = append(actions, sv.stitched...)

	res := &Result{
		Cost:        sv.incumbentCost,
		Actions:     actions,
		Expanded:    expanded,
		Optimal:     optimal,
		CacheHits:   sv.hits,
		CacheMisses: sv.misses,
	}
	// A path-free result is read only by the build that asked for it, so
	// the records share its actions; any other caller gets Actions it may
	// mutate, and the records a private copy.
	var walk *arena
	recActions := actions
	if s.noPath {
		walk = ar
	} else if rec != nil && optimal {
		recActions = slices.Clone(actions)
	}
	if err := s.buildPath(walk, res, w, rec, recActions, 1e-6); err != nil {
		return nil, err
	}
	if opts.KeepClosed {
		g := make([]float64, len(ar.best))
		for id, n := range ar.best {
			if n != nil {
				g[id] = n.g
			} else {
				g[id] = math.Inf(1)
			}
		}
		// The arena table is reused by the next search; the escaping
		// Closed gets its own immutable snapshot.
		res.Closed = &Closed{Table: ar.table.Snapshot(), G: g}
	}
	return res, nil
}

// buildPath replays the result's actions from the start vertex with
// graph.Apply, materializing the Path steps with exact accumulators (the
// search's internal states may share a static accumulator and be stitched
// from cached suffixes). Given an arena, it walks on the arena's states
// instead, from graph.StartArena with graph.ApplyArena, and leaves Path nil:
// the edge costs and signatures it reads are the same (see
// graph.ApplyArena), and none of the states outlives the call. When rec is
// set, the goal is monotonic, and optimality was proven, it also records
// every path state's solved suffix for later Commit into a transposition
// cache, less those a bound rec's cache holds already
// (PendingSuffixes.Into): the signatures go into rec's own buffer, and the
// suffixes alias recActions, which must never change, since Commit keeps
// them in the cache. The replayed edge costs double-check the path: a sum
// further than tolerance from the result's cost reports an error instead of
// a silently wrong schedule, and records nothing.
func (s *Searcher) buildPath(ar *arena, res *Result, w *workload.Workload, rec *PendingSuffixes, recActions []graph.Action, tolerance float64) error {
	record := rec != nil && s.gridded && res.Optimal
	var st *graph.State
	if ar == nil {
		res.Path = make([]Step, 0, len(res.Actions))
		st = s.prob.Start(w)
	} else {
		st = s.prob.StartArena(&ar.states, w, s.emptyAcc)
	}
	g := 0.0
	// edgeCosts[i] is step i's cost, and state i's signature ends at
	// sigEnd[i] in sigs: rec's buffer, extended past the records it already
	// holds, with the path states' signatures back to back. The records
	// alias it until Commit copies them.
	var edgeCosts []float64
	var sigs []byte
	var sigEnd []int
	if record {
		if ar != nil {
			ar.costs = slices.Grow(ar.costs[:0], len(res.Actions))[:len(res.Actions)]
			ar.ends = slices.Grow(ar.ends[:0], len(res.Actions))[:len(res.Actions)]
			edgeCosts, sigEnd = ar.costs, ar.ends
		} else {
			edgeCosts = make([]float64, len(res.Actions))
			sigEnd = make([]int, len(res.Actions))
		}
		sigs = slices.Grow(rec.sigs, len(res.Actions)*(len(st.Unassigned)+8))
	}
	for i, a := range res.Actions {
		if ar == nil {
			res.Path = append(res.Path, Step{State: st, Action: a})
		}
		if record {
			sigs = s.prob.AppendSignature(sigs, st)
			sigEnd[i] = len(sigs)
		}
		if a.Kind == graph.Startup && (!st.CanStartup() || a.VMType < 0 || a.VMType >= s.nv) {
			return fmt.Errorf("search: invalid start-up of VM type %d while replaying a path", a.VMType)
		}
		cost, ok := s.edgeCost(st, a)
		if !ok {
			return fmt.Errorf("search: invalid placement of template %d while replaying a path", a.Template)
		}
		if record {
			edgeCosts[i] = cost
		}
		g += cost
		if ar == nil {
			st = s.prob.Apply(st, a)
		} else {
			st = s.prob.ApplyArena(&ar.states, st, a)
		}
	}
	if !st.IsGoal() {
		return errors.New("search: replayed path does not reach a goal vertex")
	}
	if math.Abs(g-res.Cost) > tolerance {
		return fmt.Errorf("search: replayed path costs %.12f, expected %.12f", g, res.Cost)
	}
	if record {
		// Suffix costs are sums of grid values, so they are the same number
		// whichever sample or epoch recorded them and in whatever order the
		// edges were added: transposition caches built warm and cold hold
		// identical entries for shared signatures.
		suffix := 0.0
		for i := len(res.Actions) - 1; i >= 0; i-- {
			suffix += edgeCosts[i]
			lo := len(rec.sigs)
			if i > 0 {
				lo = sigEnd[i-1]
			}
			rec.add(sigs[lo:sigEnd[i]:sigEnd[i]], suffix, recActions[i:])
		}
		rec.sigs = sigs
	}
	return nil
}

// Replay returns the Result a search of w would produce, without
// searching, from an action sequence some earlier search of w produced: the
// actions are replayed from the start vertex exactly as buildPath replays a
// fresh search's incumbent, materializing the same Path steps (none from a
// searcher made by WithoutPaths, whose result and records share actions
// instead of copying it) and — via rec — the same
// transposition-cache suffix records (cache entries only ever come from
// returned optimal paths, so a replay regenerates precisely what the search
// would have recorded), less those rec's cache already holds verbatim when
// rec is bound to it (PendingSuffixes.Into): committing those would change
// nothing, so the cache ends up the same. cost is the earlier search's cost;
// the replay succeeds only if the path, priced by this searcher, costs
// exactly that. Anything else — another environment, a stale checkpoint, a
// path the new goal charges more — is an error, never a silently wrong
// schedule, and the caller solves instead.
//
// The earlier search must have been canonical (monotonic goal, unseeded),
// of the same workload and environment, under this searcher's goal or a
// looser one. Same goal: the canonical result is a pure function of
// (problem, workload), so the stored actions ARE today's search result, and
// warm retraining replays unchanged samples in O(path) (core's WarmTrain).
// Looser goal — the replay certificate of tightened and shifted builds:
// tightening a monotonic goal never lowers any schedule's cost, so when the
// old canonical schedule P still costs its old optimum C, no schedule costs
// less than C now, the new optimal set is the part of the old one that
// kept its price, and P, lex-least in the old set and a member of the new,
// is lex-least in the new. The returned result carries no Closed set;
// callers that need reuse information forward the earlier search's (its
// g-values remain a Lemma 5.1 bound under any stricter goal).
func (s *Searcher) Replay(w *workload.Workload, actions []graph.Action, cost float64, rec *PendingSuffixes) (*Result, error) {
	if !s.gridded {
		return nil, errors.New("search: Replay requires a monotonic goal (non-monotonic searches are not canonical)")
	}
	res := &Result{Cost: cost, Actions: actions, Optimal: true}
	recActions := actions
	var walk *arena
	if s.noPath {
		walk = arenas.Get().(*arena)
		defer func() {
			walk.states.Release()
			arenas.Put(walk)
		}()
	} else {
		res.Actions = slices.Clone(actions)
		if rec != nil {
			recActions = slices.Clone(actions)
		}
	}
	if err := s.buildPath(walk, res, w, rec, recActions, 0); err != nil {
		return nil, err
	}
	return res, nil
}

// ReuseFrom packages a completed search into the adaptive-A* reuse
// information for a re-search under a stricter goal (§5). The result must
// have been produced with KeepClosed set.
func ReuseFrom(r *Result) *Reuse {
	if r.Closed == nil {
		panic("search: ReuseFrom requires a result produced with KeepClosed")
	}
	return &Reuse{OldCost: r.Cost, Closed: r.Closed}
}
