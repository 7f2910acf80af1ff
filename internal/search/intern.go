package search

import (
	"bytes"
	"hash/maphash"
	"math"
)

// InternTable maps state signatures to dense uint32 ids. The search interns
// every generated state's signature exactly once and indexes its per-state
// bookkeeping (best-known path cost, open-list node) with the dense id, so
// the hot path never materializes a signature string for a state it has
// already seen.
//
// The table is open-addressed with linear probing over power-of-two slot
// arrays, and signature bytes live in one append-only byte arena — no
// per-entry allocations, and lookups run directly on the caller's scratch
// buffer. Reset is O(1): slots carry a generation stamp, and bumping the
// table's generation invalidates every slot at once, so a pooled search
// arena reuses its table without paying to clear it.
//
// A populated table is immutable once exported on a Result (via Closed) and
// safe for concurrent readers; Intern itself is not safe for concurrent use.
type InternTable struct {
	slots []islot
	mask  uint32
	gen   uint32
	// keys holds every interned signature back to back; offs/lens locate
	// id's bytes.
	keys []byte
	offs []uint32
	lens []uint32
}

// islot is one open-addressing slot: occupied in the current generation
// when gen matches the table's.
type islot struct {
	hash uint32
	id   uint32
	gen  uint32
}

const internMinSlots = 1024

// NewInternTable returns an empty table.
func NewInternTable() *InternTable {
	return &InternTable{
		slots: make([]islot, internMinSlots),
		mask:  internMinSlots - 1,
		gen:   1,
	}
}

// Len returns the number of interned signatures.
func (t *InternTable) Len() int { return len(t.offs) }

// sigSeed keys signature hashing for this process, one seed for every
// table so one hash serves them all. Hash values decide only probe order —
// ids are assigned in insertion order — so a per-process random seed does
// not affect determinism of search results.
var sigSeed = maphash.MakeSeed()

// hashSig hashes the signature bytes through the runtime-assisted maphash.
func hashSig(sig []byte) uint32 {
	h := maphash.Bytes(sigSeed, sig)
	return uint32(h ^ h>>32)
}

// key returns id's signature bytes.
func (t *InternTable) key(id uint32) []byte {
	off := t.offs[id]
	return t.keys[off : off+t.lens[id]]
}

// Intern returns the dense id of the signature, assigning the next free id
// (== Len() before the call) when the signature is new. fresh reports
// whether a new id was assigned. The byte slice is only copied when fresh.
func (t *InternTable) Intern(sig []byte) (id uint32, fresh bool) {
	return t.internHash(sig, hashSig(sig))
}

// internHash is Intern for a caller that already holds h == hashSig(sig):
// the search hashes each generated state once and hands the hash to every
// table it consults.
func (t *InternTable) internHash(sig []byte, h uint32) (id uint32, fresh bool) {
	if len(t.offs) >= len(t.slots)*3/4 {
		t.grow()
	}
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.gen != t.gen {
			id = uint32(len(t.offs))
			t.offs = append(t.offs, uint32(len(t.keys)))
			t.lens = append(t.lens, uint32(len(sig)))
			t.keys = append(t.keys, sig...)
			*s = islot{hash: h, id: id, gen: t.gen}
			return id, true
		}
		if s.hash == h && bytes.Equal(t.key(s.id), sig) {
			return s.id, false
		}
		i = (i + 1) & t.mask
	}
}

// Lookup returns the id of the signature without interning it.
func (t *InternTable) Lookup(sig []byte) (uint32, bool) {
	return t.lookupHash(sig, hashSig(sig))
}

// lookupHash is Lookup given h == hashSig(sig).
func (t *InternTable) lookupHash(sig []byte, h uint32) (uint32, bool) {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.gen != t.gen {
			return 0, false
		}
		if s.hash == h && bytes.Equal(t.key(s.id), sig) {
			return s.id, true
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the slot array, reinserting live entries with their stored
// hashes (no key bytes are re-hashed).
func (t *InternTable) grow() {
	t.slots = rehash(t.slots, 2*len(t.slots), t.gen)
	t.mask = uint32(len(t.slots) - 1)
}

// rehash redistributes the generation-live entries of slots into a fresh
// power-of-two array of the given size.
func rehash(slots []islot, size int, gen uint32) []islot {
	out := make([]islot, size)
	mask := uint32(size - 1)
	for _, s := range slots {
		if s.gen != gen {
			continue
		}
		i := s.hash & mask
		for out[i].gen == gen {
			i = (i + 1) & mask
		}
		out[i] = s
	}
	return out
}

// Reset empties the table in O(1), retaining its allocated capacity for
// reuse by a later search: bumping the generation stamp invalidates every
// slot at once.
func (t *InternTable) Reset() {
	t.gen++
	if t.gen == 0 {
		// Generation counter wrapped (once per 2^32 resets): stale slots
		// from generation 0 could read as live, so clear them.
		for i := range t.slots {
			t.slots[i] = islot{}
		}
		t.gen = 1
	}
	t.keys = t.keys[:0]
	t.offs = t.offs[:0]
	t.lens = t.lens[:0]
}

// Snapshot returns an immutable deep copy of the table, rehashed into the
// smallest slot array that holds its contents (the arena table it copies
// from may have grown much larger serving a bigger earlier search). Solve
// interns into a pooled arena table on the hot path and snapshots it once
// when the caller asked to keep the closed set.
func (t *InternTable) Snapshot() *InternTable {
	size := 64
	for size*3/4 <= len(t.offs) {
		size *= 2
	}
	return &InternTable{
		slots: rehash(t.slots, size, t.gen),
		mask:  uint32(size - 1),
		gen:   t.gen,
		keys:  append([]byte(nil), t.keys...),
		offs:  append([]uint32(nil), t.offs...),
		lens:  append([]uint32(nil), t.lens...),
	}
}

// Closed is the interned closed-set export of a completed search: the
// signature→id table plus the best path cost g(v) reached for each id.
// Entries whose states were generated but pruned before being recorded hold
// +Inf and report as absent. Adaptive modeling (§5) feeds a Closed back into
// a re-search of the same workload under a tightened goal.
type Closed struct {
	// Table interns the signatures of every state the search generated.
	Table *InternTable
	// G holds the best known path cost per dense id.
	G []float64
}

// Lookup returns the recorded best path cost for the signature.
func (c *Closed) Lookup(sig []byte) (float64, bool) {
	return c.lookupHash(sig, hashSig(sig))
}

// lookupHash is Lookup given h == hashSig(sig).
func (c *Closed) lookupHash(sig []byte, h uint32) (float64, bool) {
	id, ok := c.Table.lookupHash(sig, h)
	if !ok || math.IsInf(c.G[id], 1) {
		return 0, false
	}
	return c.G[id], true
}

// Len returns the number of states with a recorded path cost.
func (c *Closed) Len() int {
	n := 0
	for _, g := range c.G {
		if !math.IsInf(g, 1) {
			n++
		}
	}
	return n
}
