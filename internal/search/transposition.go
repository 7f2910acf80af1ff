package search

import (
	"bytes"
	"slices"
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
// Storage is layered. A cache's own entries live in a mutable suffixTable
// (the package's InternTable, signature → dense id, beside a slice of
// entries indexed by that id). A cache made by Derive — a warm retrain's,
// over the prior epoch's — adds a frozen base table below it: the prior's,
// shared and never written again. A lookup probes the layer, then the base;
// a Commit merges into the layer, which shadows a base entry only when the
// canonical merge replaces it. Deriving copies only the layer, and a layer
// that reaches half its base is flattened into one table (flatten), so a
// lookup probes at most two tables and a chain of derived caches never
// holds more than a base and a layer.
//
// Nothing is locked: writers (Commit, Import) are single-threaded and never
// concurrent with lookup — the generation barrier in core.solveSamplesFold
// commits only when no search is in flight — and every other method (Len,
// Stats, Export, Sorted, Derive) only reads, so any number of them may run
// beside each other and beside lookups. A cache that has been derived from
// is frozen: its tables are another cache's base, so it must not be written
// again (a published model's cache only ever has readers). Writes to a
// derived cache touch only its own layer and the tables flatten creates,
// never the shared base. The lifetime counters alone are atomic, folded in
// once per Solve.
type TranspositionCache struct {
	// base is the frozen table of the cache this one was derived from; nil
	// for a flat cache.
	base *suffixTable
	// top holds the cache's own entries: all of them when base is nil, the
	// layer over base otherwise.
	top *suffixTable
	// shadowed counts top's entries whose signature base also holds.
	shadowed int
	hits     atomic.Int64
	misses   atomic.Int64
}

// suffixTable is one table of a cache: the interned signatures beside their
// entries, indexed by the table's dense id.
type suffixTable struct {
	table   *InternTable
	entries []suffixEntry
}

func newSuffixTable() *suffixTable { return &suffixTable{table: NewInternTable()} }

// lookupHash returns the table's entry for the signature, if any.
func (t *suffixTable) lookupHash(sig []byte, h uint32) (suffixEntry, bool) {
	id, ok := t.table.lookupHash(sig, h)
	if !ok {
		return suffixEntry{}, false
	}
	return t.entries[id], true
}

// add stores an entry under a signature the table does not hold.
func (t *suffixTable) add(sig []byte, h uint32, e suffixEntry) {
	t.table.internHash(sig, h)
	t.entries = append(t.entries, e)
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
	return &TranspositionCache{top: newSuffixTable()}
}

// Derive returns a cache that starts with this cache's entries and takes
// its own commits, leaving this one as it is. This cache becomes frozen —
// the derived cache reads its tables as a shared base — so Derive is for a
// cache that only has readers from now on, such as a published model's. A
// flat cache becomes the derived cache's base whole; a derived cache shares
// its own base and has its layer copied, so no base is ever copied and
// lookups still probe two tables. Lifetime counters start at zero. A warm
// retrain derives from the prior epoch's cache.
func (c *TranspositionCache) Derive() *TranspositionCache {
	if c.base == nil {
		return &TranspositionCache{base: c.top, top: newSuffixTable()}
	}
	return &TranspositionCache{
		base:     c.base,
		top:      &suffixTable{table: c.top.table.Snapshot(), entries: slices.Clone(c.top.entries)},
		shadowed: c.shadowed,
	}
}

// lookupHash returns the solved suffix for the signature, if any, given
// h == hashSig(sig): the layer's entry, else the base's. It takes no lock
// and does not allocate.
func (c *TranspositionCache) lookupHash(sig []byte, h uint32) (suffixEntry, bool) {
	if e, ok := c.top.lookupHash(sig, h); ok || c.base == nil {
		return e, ok
	}
	return c.base.lookupHash(sig, h)
}

// better reports whether the suffix (cost, actions) wins the canonical
// merge against e: lower cost, or equal cost and lexicographically least
// under actionCmp, shorter prefix first — the order path keys encode, so
// the kept suffix is the one the canonical search would choose.
func better(cost float64, actions []graph.Action, e suffixEntry) bool {
	return cost < e.cost || (cost == e.cost && slices.CompareFunc(actions, e.actions, actionCmp) < 0)
}

// merge folds one solved suffix into the cache with the canonical merge
// (better). The layer's entry is replaced in place; a base entry is
// shadowed by a layer entry only when the suffix beats it. The signature
// bytes are copied only when new to the layer.
func (c *TranspositionCache) merge(sig []byte, cost float64, actions []graph.Action) {
	h := hashSig(sig)
	if id, ok := c.top.table.lookupHash(sig, h); ok {
		if e := &c.top.entries[id]; better(cost, actions, *e) {
			*e = suffixEntry{cost: cost, actions: actions}
		}
		return
	}
	if c.base != nil {
		if e, ok := c.base.lookupHash(sig, h); ok {
			if !better(cost, actions, e) {
				return
			}
			c.shadowed++
		}
	}
	c.top.add(sig, h, suffixEntry{cost: cost, actions: actions})
	if c.base != nil && 2*c.top.table.Len() >= c.base.table.Len() {
		c.flatten()
	}
}

// flatten folds the layer and the unshadowed base entries into one new
// table that the cache then owns alone. The shared base is only read.
func (c *TranspositionCache) flatten() {
	v := c.Sorted(0)
	flat := &suffixTable{table: NewInternTable(), entries: make([]suffixEntry, 0, v.Len())}
	for i := range v.Len() {
		sig, cost, actions := v.At(i)
		flat.add(sig, hashSig(sig), suffixEntry{cost: cost, actions: actions})
	}
	c.base, c.top, c.shadowed = nil, flat, 0
}

// Len returns the number of cached suffix subproblems.
func (c *TranspositionCache) Len() int {
	n := len(c.top.entries)
	if c.base != nil {
		n += len(c.base.entries) - c.shadowed
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
	// sigs holds the signatures of the records a search recorded, back to
	// back; those records alias it until Commit, which reuses it.
	sigs []byte
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
// independent of Commit order and interleaving. The merge copies every
// signature it keeps, so the buffer's signature bytes are free for the
// next search's records once Commit returns.
func (c *TranspositionCache) Commit(p *PendingSuffixes) {
	for _, r := range p.recs {
		c.merge(r.sig, r.cost, r.actions)
	}
	// Clear before truncating: a pooled buffer must not keep the last
	// generation's suffixes reachable.
	clear(p.recs)
	p.recs = p.recs[:0]
	p.sigs = p.sigs[:0]
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

// SortedEntries is a read-only view of a cache's entries in signature
// order, made by Sorted: a slice of entry references over the cache's own
// tables, so reading it copies no signature and no suffix.
type SortedEntries struct {
	c *TranspositionCache
	// refs index the base's entries, or with layerRef set the layer's.
	refs []uint32
}

// layerRef marks a SortedEntries reference into the cache's layer.
const layerRef = 1 << 31

// Sorted returns the cache's entries in signature order (a canonical,
// content-deterministic order: two caches with equal contents list equal
// entries however they were committed, layered or flat). If max > 0 the
// view holds at most max entries, truncated from the sorted order — still
// deterministic, so a persisted cache is a pure function of the cache
// contents. The view reads the cache's tables; it stays valid while the
// cache is not written.
func (c *TranspositionCache) Sorted(max int) SortedEntries {
	v := SortedEntries{c: c, refs: make([]uint32, 0, c.Len())}
	if c.base != nil {
		for id := range c.base.entries {
			if c.shadowed > 0 {
				if _, ok := c.top.table.Lookup(c.base.table.key(uint32(id))); ok {
					continue
				}
			}
			v.refs = append(v.refs, uint32(id))
		}
	}
	for id := range c.top.entries {
		v.refs = append(v.refs, uint32(id)|layerRef)
	}
	slices.SortFunc(v.refs, func(a, b uint32) int { return bytes.Compare(v.sig(a), v.sig(b)) })
	if max > 0 && len(v.refs) > max {
		v.refs = v.refs[:max]
	}
	return v
}

// sig returns a reference's signature bytes.
func (v SortedEntries) sig(ref uint32) []byte {
	if ref&layerRef != 0 {
		return v.c.top.table.key(ref &^ layerRef)
	}
	return v.c.base.table.key(ref)
}

// Len returns the number of entries in the view.
func (v SortedEntries) Len() int { return len(v.refs) }

// At returns the i-th entry: its signature, cost and suffix. Both slices
// alias the cache's immutable storage and must not be mutated.
func (v SortedEntries) At(i int) (sig []byte, cost float64, actions []graph.Action) {
	ref := v.refs[i]
	t := v.c.base
	if ref&layerRef != 0 {
		t = v.c.top
	}
	e := t.entries[ref&^layerRef]
	return v.sig(ref), e.cost, e.actions
}

// Export snapshots the cache's entries in signature order, at most max of
// them when max > 0 — the entries Sorted(max) lists, with every signature
// copied into its own string. The action slices alias the cache's
// immutable internals and must not be mutated.
func (c *TranspositionCache) Export(max int) []CacheEntry {
	v := c.Sorted(max)
	out := make([]CacheEntry, v.Len())
	for i := range out {
		sig, cost, actions := v.At(i)
		out[i] = CacheEntry{Sig: string(sig), Cost: cost, Actions: actions}
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

// addCounters folds one search's lookup counters into the cache stats.
func (c *TranspositionCache) addCounters(hits, misses int) {
	if hits != 0 {
		c.hits.Add(int64(hits))
	}
	if misses != 0 {
		c.misses.Add(int64(misses))
	}
}
