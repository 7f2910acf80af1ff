package search

import (
	"encoding/binary"
	"time"

	"wisedb/internal/graph"
	"wisedb/internal/sla"
)

// dominanceIndex prunes Percentile-goal states by Pareto dominance.
//
// Consider two states that agree on the unassigned counts and the open VM's
// type and queued wait. They have the same number of assigned queries, so
// they differ only in how those latencies split into "below deadline"
// (count) and "above deadline" (sorted vector). State A dominates state B
// when A's violation vector, right-aligned against B's, is pointwise no
// larger:
//
//	len(A.above) <= len(B.above), and
//	A.above[i] <= B.above[i + len(B)-len(A)] for all i.
//
// Every completion of B then maps to a completion of A whose final
// percentile value — the (rank − below)-th smallest violation — is no
// larger: removing elements from a sorted multiset while shifting the index
// down never increases the selected order statistic. Fees and processing
// match exactly, so B can be dropped when A's path cost (net of the
// refundable penalty, see below) is no higher.
//
// Path costs are compared net of the state's current penalty (ĝ = g −
// p(state)): the accumulated percentile penalty is refundable by future
// placements, and two states with ordered violation vectors refund
// differently, so only the non-refundable processing+fee component is a
// sound basis for dominance.
//
// Keys are interned to dense ids (an InternTable, as the closed set uses)
// and buckets indexed by id, so steady-state lookups and inserts allocate
// nothing: only a fresh key's bytes are copied. An index is pooled with its
// search arena and reset between searches.
type dominanceIndex struct {
	table   *InternTable
	buckets [][]domEntry
	keyBuf  []byte // scratch reused across key computations
}

type domEntry struct {
	above []time.Duration
	gHat  float64
}

func newDominanceIndex() *dominanceIndex {
	return &dominanceIndex{table: NewInternTable()}
}

// reset readies the index for a fresh search, retaining capacity. Buckets
// of previously seen ids are emptied lazily as ids are re-assigned.
func (d *dominanceIndex) reset() {
	d.table.Reset()
	d.buckets = d.buckets[:0]
}

// release drops the violation-vector references held by the finished
// search so a pooled index pins nothing.
func (d *dominanceIndex) release() {
	full := d.buckets[:cap(d.buckets)]
	for i := range full {
		b := full[i][:cap(full[i])]
		for j := range b {
			b[j] = domEntry{}
		}
		full[i] = b[:0]
	}
	d.buckets = d.buckets[:0]
}

// key buckets states by everything except the violation split: unassigned
// counts (which fix the assigned count), open VM type and wait. The returned
// byte key aliases the index's scratch buffer and is valid until the next
// key call.
func (d *dominanceIndex) key(st *graph.State) ([]byte, []time.Duration, bool) {
	_, above, ok := sla.PctState(st.Acc)
	if !ok {
		return nil, nil, false
	}
	buf := d.keyBuf[:0]
	for _, c := range st.Unassigned {
		buf = binary.AppendVarint(buf, int64(c))
	}
	buf = binary.AppendVarint(buf, int64(st.OpenType))
	buf = binary.AppendVarint(buf, int64(st.Wait/time.Millisecond))
	d.keyBuf = buf
	return buf, above, true
}

// dominatesRightAligned reports whether a (shorter or equal) pointwise
// dominates b when right-aligned.
func dominatesRightAligned(a, b []time.Duration) bool {
	if len(a) > len(b) {
		return false
	}
	shift := len(b) - len(a)
	for i := range a {
		if a[i] > b[i+shift] {
			return false
		}
	}
	return true
}

// dominated reports whether an already-indexed state dominates the given
// state at path cost g.
func (d *dominanceIndex) dominated(st *graph.State, g float64) bool {
	key, above, ok := d.key(st)
	if !ok {
		return false
	}
	id, found := d.table.Lookup(key)
	if !found || int(id) >= len(d.buckets) {
		return false
	}
	gHat := g - st.Acc.Penalty()
	for _, e := range d.buckets[id] {
		if e.gHat <= gHat+eps && dominatesRightAligned(e.above, above) {
			return true
		}
	}
	return false
}

// insert records the state, evicting entries it dominates to keep buckets
// small.
func (d *dominanceIndex) insert(st *graph.State, g float64) {
	key, above, ok := d.key(st)
	if !ok {
		return
	}
	id, fresh := d.table.Intern(key)
	if fresh {
		if int(id) < cap(d.buckets) {
			// Reclaim a bucket left over from a previous search.
			d.buckets = d.buckets[:id+1]
			d.buckets[id] = d.buckets[id][:0]
		} else {
			d.buckets = append(d.buckets, nil)
		}
	}
	gHat := g - st.Acc.Penalty()
	entries := d.buckets[id]
	kept := entries[:0]
	for _, e := range entries {
		if gHat <= e.gHat+eps && dominatesRightAligned(above, e.above) {
			continue // evict: new entry is at least as good everywhere
		}
		kept = append(kept, e)
	}
	d.buckets[id] = append(kept, domEntry{above: above, gHat: gHat})
}
