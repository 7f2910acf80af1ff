package search

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"wisedb/internal/graph"
)

// TranspositionCache shares solved suffix subproblems across searches of
// one scheduling-graph Problem. Every state on an optimal path closes a
// suffix subproblem exactly — the path's tail is a minimum-cost completion
// of the state, by the splice argument: a cheaper completion would splice
// with the path's prefix into a schedule cheaper than the optimum. The
// state's canonical signature (graph.AppendSignature) determines every
// future edge weight by the Accumulator signature contract, so the solved
// suffix is valid for *any* search of the same Problem that reaches a state
// with the same signature — in particular for the other sample workloads of
// a training run, which all share one Problem and differ only in their
// start counts. A search that generates a cached state stitches the stored
// suffix instead of expanding the subtree.
//
// Soundness is restricted to monotonically increasing goals; Solve ignores
// the cache otherwise. Under refundable penalties (Average, Percentile) the
// accumulator signature embeds the full penalty-relevant history (count and
// latency sum, or the violation vector), so a cache key is only ever shared
// by states the per-search intern table already merges — cross-search hits
// require an identical penalty history and are vanishingly rare while every
// generated edge pays a lookup — and the Percentile search additionally
// prunes by Pareto dominance, whose ĝ comparisons assume every kept state
// may still refund penalty through future placements; a stitched suffix
// fixes those placements and breaks that assumption. The monotonic goals
// are exactly the history-free ones in practice (sla.PenaltyHistoryFree),
// whose states share the workload-independent key (unassigned counts,
// open-VM type, queued wait) that makes cross-sample reuse pay.
//
// Determinism: entries are merged with a canonical tie-break — lower cost
// wins, equal cost (within eps) resolves to the lexicographically least
// action suffix — so the cache contents after any set of Commits are
// independent of commit order. Worker pools additionally buffer writes in
// PendingSuffixes and Commit them at deterministic barriers (see
// core.Train), so every search observes a cache state that does not depend
// on goroutine scheduling.
//
// The cache is sharded and mutex-striped: lookups take a per-shard RLock on
// the hot path, Commits a per-shard write lock.
type TranspositionCache struct {
	shards [tcShards]tcShard
	hits   atomic.Int64
	misses atomic.Int64
}

const tcShards = 16

type tcShard struct {
	mu sync.RWMutex
	m  map[string]suffixEntry
}

// suffixEntry is a solved suffix subproblem: the minimum cost-to-go from
// any state with the key's signature, and the canonical optimal action
// suffix realizing it. The actions slice is immutable once stored.
type suffixEntry struct {
	cost    float64
	actions []graph.Action
}

// NewTranspositionCache returns an empty cache.
func NewTranspositionCache() *TranspositionCache {
	c := &TranspositionCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[string]suffixEntry)
	}
	return c
}

// shardOf hashes a signature (FNV-1a) onto its shard.
func shardOf(sig []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range sig {
		h = (h ^ uint32(b)) * 16777619
	}
	return h % tcShards
}

func shardOfString(sig string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(sig); i++ {
		h = (h ^ uint32(sig[i])) * 16777619
	}
	return h % tcShards
}

// lookup returns the solved suffix for the signature, if any. It does not
// allocate: the map is read through the scratch bytes directly.
func (c *TranspositionCache) lookup(sig []byte) (suffixEntry, bool) {
	s := &c.shards[shardOf(sig)]
	s.mu.RLock()
	e, ok := s.m[string(sig)]
	s.mu.RUnlock()
	return e, ok
}

// Len returns the number of cached suffix subproblems.
func (c *TranspositionCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// CacheStats aggregates a cache's lifetime counters.
type CacheStats struct {
	// Hits and Misses count lookup outcomes across every search that used
	// the cache.
	Hits, Misses int64
	// Entries is the current number of cached suffix subproblems.
	Entries int
}

// Stats returns the cache's aggregate counters.
func (c *TranspositionCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.Len()}
}

// PendingSuffixes buffers suffix records produced by searches until a
// Commit publishes them to a cache. Worker pools give each in-flight search
// its own buffer and Commit at a barrier, so that which entries a search
// can observe never depends on goroutine scheduling. A PendingSuffixes is
// owned by one search at a time; Commit empties it for reuse.
type PendingSuffixes struct {
	recs []suffixRecord
}

type suffixRecord struct {
	sig     string
	cost    float64
	actions []graph.Action
}

// Len returns the number of buffered records.
func (p *PendingSuffixes) Len() int { return len(p.recs) }

// add buffers one solved suffix. The actions slice must be immutable.
func (p *PendingSuffixes) add(sig []byte, cost float64, actions []graph.Action) {
	p.recs = append(p.recs, suffixRecord{sig: string(sig), cost: cost, actions: actions})
}

// Commit publishes the buffered records into the cache with the canonical
// merge and empties the buffer. Merging is commutative, associative, and
// idempotent — lower cost wins; equal costs keep the lexicographically
// least suffix — so the cache contents reached from any set of records are
// independent of Commit order and interleaving.
func (c *TranspositionCache) Commit(p *PendingSuffixes) {
	for _, r := range p.recs {
		s := &c.shards[shardOfString(r.sig)]
		s.mu.Lock()
		e, ok := s.m[r.sig]
		if !ok || r.cost < e.cost-eps || (r.cost <= e.cost+eps && lexLessActions(r.actions, e.actions)) {
			s.m[r.sig] = suffixEntry{cost: r.cost, actions: r.actions}
		}
		s.mu.Unlock()
	}
	p.recs = p.recs[:0]
}

// lexLessActions orders action sequences lexicographically under actionCmp
// (the same total order the canonical search's tie-breaks use — the cache's
// kept suffix must be the one the canonical search would choose), shorter
// prefix first. It is the canonical tie-break among equal-cost suffixes.
func lexLessActions(a, b []graph.Action) bool {
	return lexCmpActions(a, b) < 0
}

// CacheEntry is one exported solved-suffix subproblem: the state signature
// it completes, the minimum cost-to-go, and the canonical optimal action
// suffix. Entries round-trip through Export/Import so a cache can travel
// across epochs and through checkpoints.
type CacheEntry struct {
	Sig     string
	Cost    float64
	Actions []graph.Action
}

// Export snapshots the cache's entries in signature order (a canonical,
// content-deterministic order: two caches with equal contents export equal
// slices regardless of commit history). If max > 0 at most max entries are
// returned, truncated from the sorted order — still deterministic, so a
// persisted cache is a pure function of the cache contents. The returned
// slices alias the cache's immutable internals and must not be mutated.
func (c *TranspositionCache) Export(max int) []CacheEntry {
	out := make([]CacheEntry, 0, c.Len())
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for sig, e := range s.m {
			out = append(out, CacheEntry{Sig: sig, Cost: e.cost, Actions: e.actions})
		}
		s.mu.RUnlock()
	}
	slices.SortFunc(out, func(a, b CacheEntry) int { return strings.Compare(a.Sig, b.Sig) })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Import merges exported entries into the cache with the same canonical
// merge Commit uses, so importing is commutative with concurrent Commits
// and idempotent. The entries' slices are retained; they must stay
// immutable.
func (c *TranspositionCache) Import(entries []CacheEntry) {
	for _, r := range entries {
		s := &c.shards[shardOfString(r.Sig)]
		s.mu.Lock()
		e, ok := s.m[r.Sig]
		if !ok || r.Cost < e.cost-eps || (r.Cost <= e.cost+eps && lexLessActions(r.Actions, e.actions)) {
			s.m[r.Sig] = suffixEntry{cost: r.Cost, actions: r.Actions}
		}
		s.mu.Unlock()
	}
}

// Clone returns an independent cache with the same entries. Entry slices
// are shared (immutable by contract); lifetime counters start at zero. A
// warm retrain clones the prior epoch's cache so its own commits never
// mutate the epoch snapshot it started from.
func (c *TranspositionCache) Clone() *TranspositionCache {
	n := NewTranspositionCache()
	for i := range c.shards {
		src, dst := &c.shards[i], &n.shards[i]
		src.mu.RLock()
		for sig, e := range src.m {
			dst.m[sig] = e
		}
		src.mu.RUnlock()
	}
	return n
}

// addCounters folds one search's lookup counters into the cache stats.
func (c *TranspositionCache) addCounters(hits, misses int) {
	if hits != 0 {
		c.hits.Add(int64(hits))
	}
	if misses != 0 {
		c.misses.Add(int64(misses))
	}
}
