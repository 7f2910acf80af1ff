package core

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"wisedb/internal/graph"
)

// decisionMemo memoizes a model's serving walk. The walk reads nothing of a
// batch but its per-template counts — queries of one template are
// interchangeable (§4.3) and retag hands out the real tags afterwards — and
// nothing of the event but its price multiplier, so the action path is a
// pure function of (model, counts, priceMult). The memo maps that key to
// the path's action labels; a hit replays them with no features and no tree
// walk.
//
// Reads take no lock and write no shared memory: the table is an
// open-addressed array of atomic pointers to immutable entries. Stores,
// once per key, serialize on mu and either fill an empty slot in place or
// publish a new table twice the size. A reader holding an old table finds
// every entry that table held, and at worst misses a newer one and walks.
// The memo lives and dies with its Model.
type decisionMemo struct {
	table atomic.Pointer[memoTable]
	mu    sync.Mutex // serializes stores
	n     int        // entries held, under mu
}

// memoTable is one generation of the memo: a power-of-two slot array kept
// at most half full, so every probe sequence ends at an empty slot.
type memoTable struct {
	seed  maphash.Seed
	slots []atomic.Pointer[memoEntry]
}

// memoEntry is one memoized walk in one allocation: its key, then the
// path's graph.Action labels, two bytes each, little-endian. Every key of a
// model has the same length. Immutable once published.
type memoEntry struct {
	data string
}

// memoMaxBatch is the largest batch a memo key can encode: one byte per
// template count.
const memoMaxBatch = math.MaxUint8

// memoKey appends a batch's memo key to dst: each template's count as one
// byte (so at most memoMaxBatch queries), then priceMult's bits.
func memoKey(dst []byte, counts []int, priceMult float64) []byte {
	for _, c := range counts {
		dst = append(dst, byte(c))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(priceMult))
}

// lookup returns the labels memoized under key, encoded as in memoEntry.
func (d *decisionMemo) lookup(key []byte) (labels string, ok bool) {
	t := d.table.Load()
	if t == nil {
		return "", false
	}
	mask := uint64(len(t.slots) - 1)
	for i := maphash.Bytes(t.seed, key) & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return "", false
		}
		if e.data[:len(key)] == string(key) {
			return e.data[len(key):], true
		}
	}
}

// store memoizes the walk that produced actions under key, copying both:
// the caller's buffers are pooled scratch. A key already held is left as
// it is — every walk of it produces the same actions.
func (d *decisionMemo) store(key []byte, actions []graph.Action, numTemplates int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.lookup(key); ok {
		return
	}
	t := d.table.Load()
	if t == nil || 2*(d.n+1) > len(t.slots) {
		t = d.grow(t, len(key))
	}
	var b strings.Builder
	b.Grow(len(key) + 2*len(actions))
	b.Write(key)
	for _, a := range actions {
		l := a.Label(numTemplates)
		b.WriteByte(byte(l))
		b.WriteByte(byte(l >> 8))
	}
	t.insert(&memoEntry{data: b.String()}, len(key))
	d.n++
}

// grow publishes a table twice the size of t (16 slots for none) holding
// t's entries, whose keys are keyLen bytes. The caller holds d.mu.
func (d *decisionMemo) grow(t *memoTable, keyLen int) *memoTable {
	size := 16
	if t != nil {
		size = 2 * len(t.slots)
	}
	nt := &memoTable{seed: maphash.MakeSeed(), slots: make([]atomic.Pointer[memoEntry], size)}
	if t != nil {
		for i := range t.slots {
			if e := t.slots[i].Load(); e != nil {
				nt.insert(e, keyLen)
			}
		}
	}
	d.table.Store(nt)
	return nt
}

// insert puts e, whose key is its first keyLen bytes and absent from t, in
// the first empty slot of its probe sequence.
func (t *memoTable) insert(e *memoEntry, keyLen int) {
	mask := uint64(len(t.slots) - 1)
	i := maphash.String(t.seed, e.data[:keyLen]) & mask
	for t.slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	t.slots[i].Store(e)
}
