package search

import (
	"slices"
	"strings"
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
// wins, equal cost (costs are exact sums of cost-grid values, see grid.go)
// resolves to the lexicographically least action suffix — so the cache
// contents after any set of Commits are independent of commit order.
// Worker pools additionally buffer writes in PendingSuffixes and Commit
// them at deterministic barriers (see core.solveSamplesFold), so every
// search observes a cache state that does not depend on goroutine
// scheduling.
//
// Storage is the package's own InternTable (signature → dense id) beside a
// slice of entries indexed by that id. Nothing is locked: writers (Commit,
// Import) are single-threaded and never concurrent with lookup — the
// generation barrier in core.solveSamplesFold commits only when no search
// is in flight — and every other method (Len, Stats, Export, Clone) only
// reads, so any number of them may run beside each other and beside
// lookups. The lifetime counters alone are atomic, folded in once per Solve.
type TranspositionCache struct {
	table   *InternTable
	entries []suffixEntry // indexed by the table's dense id
	hits    atomic.Int64
	misses  atomic.Int64
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
	return &TranspositionCache{table: NewInternTable()}
}

// lookupHash returns the solved suffix for the signature, if any, given
// h == hashSig(sig). It takes no lock and does not allocate.
func (c *TranspositionCache) lookupHash(sig []byte, h uint32) (suffixEntry, bool) {
	id, ok := c.table.lookupHash(sig, h)
	if !ok {
		return suffixEntry{}, false
	}
	return c.entries[id], true
}

// merge folds one solved suffix into the cache with the canonical merge:
// lower cost wins, equal cost keeps the lexicographically least suffix
// under actionCmp, shorter prefix first — the order path keys encode, so
// the kept suffix is the one the canonical search would choose. The
// signature bytes are copied only when new.
func (c *TranspositionCache) merge(sig []byte, cost float64, actions []graph.Action) {
	id, fresh := c.table.Intern(sig)
	if fresh {
		c.entries = append(c.entries, suffixEntry{cost: cost, actions: actions})
		return
	}
	e := &c.entries[id]
	if cost < e.cost || (cost == e.cost && slices.CompareFunc(actions, e.actions, actionCmp) < 0) {
		*e = suffixEntry{cost: cost, actions: actions}
	}
}

// Len returns the number of cached suffix subproblems.
func (c *TranspositionCache) Len() int { return len(c.entries) }

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
	sig     []byte
	cost    float64
	actions []graph.Action
}

// Len returns the number of buffered records.
func (p *PendingSuffixes) Len() int { return len(p.recs) }

// add buffers one solved suffix. Both slices are retained until Commit and
// must not change under it.
func (p *PendingSuffixes) add(sig []byte, cost float64, actions []graph.Action) {
	p.recs = append(p.recs, suffixRecord{sig: sig, cost: cost, actions: actions})
}

// Commit publishes the buffered records into the cache with the canonical
// merge and empties the buffer. Merging is commutative, associative, and
// idempotent — lower cost wins; equal costs keep the lexicographically
// least suffix — so the cache contents reached from any set of records are
// independent of Commit order and interleaving.
func (c *TranspositionCache) Commit(p *PendingSuffixes) {
	for _, r := range p.recs {
		c.merge(r.sig, r.cost, r.actions)
	}
	// Clear before truncating: a pooled buffer must not keep the last
	// generation's signatures and suffixes reachable.
	clear(p.recs)
	p.recs = p.recs[:0]
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
	out := make([]CacheEntry, len(c.entries))
	keys := string(c.table.keys) // one copy; every Sig is a substring of it
	for id, e := range c.entries {
		off := c.table.offs[id]
		out[id] = CacheEntry{Sig: keys[off : off+c.table.lens[id]], Cost: e.cost, Actions: e.actions}
	}
	slices.SortFunc(out, func(a, b CacheEntry) int { return strings.Compare(a.Sig, b.Sig) })
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}

// Import merges exported entries into the cache with the same canonical
// merge Commit uses, so importing commutes with Commits and is idempotent.
// An entry whose cost is off the cost grid is skipped: it was exported by
// the float arithmetic the grid replaced, differs from today's suffix cost
// in the last bits, and would break the ties canonical searches decide by;
// the searches that would have hit it solve the suffix instead. The
// entries' action slices are retained; they must stay immutable.
func (c *TranspositionCache) Import(entries []CacheEntry) {
	for _, r := range entries {
		if onGrid(r.Cost) {
			c.merge([]byte(r.Sig), r.Cost, r.Actions)
		}
	}
}

// Clone returns an independent cache with the same entries. Entry slices
// are shared (immutable by contract); lifetime counters start at zero. A
// warm retrain clones the prior epoch's cache so its own commits never
// mutate the epoch snapshot it started from.
func (c *TranspositionCache) Clone() *TranspositionCache {
	return &TranspositionCache{table: c.table.Snapshot(), entries: slices.Clone(c.entries)}
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
