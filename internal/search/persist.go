package search

import "fmt"

// ClosedExport is the flat, serializable form of a Closed set: the interned
// signature bytes laid back to back with their offsets and lengths (id
// order), and the recorded best path cost per id. The hash table itself is
// not exported — signature hashing is seeded per process — so an import
// rebuilds it by re-interning.
type ClosedExport struct {
	Keys []byte
	Offs []uint32
	Lens []uint32
	G    []float64
}

// Export flattens the closed set. The returned slices are read-only views
// of the set's own storage — a Closed and its table never change once the
// search that built them returns, so a checkpoint can encode them while a
// retrain reads them — and must not be modified.
func (c *Closed) Export() ClosedExport {
	return ClosedExport{Keys: c.Table.keys, Offs: c.Table.offs, Lens: c.Table.lens, G: c.G}
}

// ClosedFromExport rebuilds a closed set by re-interning every exported
// signature in id order. It validates the export completely — consistent
// lengths, contiguous key layout, no duplicate signatures — so a decoder
// can feed it untrusted bytes: malformed exports yield an error, never a
// panic or a corrupted table.
func ClosedFromExport(e ClosedExport) (*Closed, error) {
	n := len(e.Offs)
	if len(e.Lens) != n || len(e.G) != n {
		return nil, fmt.Errorf("search: closed export has %d offsets, %d lengths, %d costs", n, len(e.Lens), len(e.G))
	}
	t := NewInternTable()
	pos := uint32(0)
	for i := 0; i < n; i++ {
		// Intern appends keys back to back, so a faithful export has
		// offs[i] exactly at the running total; anything else was not
		// produced by Export.
		if e.Offs[i] != pos || e.Lens[i] > uint32(len(e.Keys))-pos {
			return nil, fmt.Errorf("search: closed export key %d spans [%d,+%d) of %d key bytes", i, e.Offs[i], e.Lens[i], len(e.Keys))
		}
		sig := e.Keys[pos : pos+e.Lens[i]]
		id, fresh := t.Intern(sig)
		if !fresh || id != uint32(i) {
			return nil, fmt.Errorf("search: closed export has duplicate signature at id %d", i)
		}
		pos += e.Lens[i]
	}
	if pos != uint32(len(e.Keys)) {
		return nil, fmt.Errorf("search: closed export has %d trailing key bytes", uint32(len(e.Keys))-pos)
	}
	return &Closed{Table: t, G: append([]float64(nil), e.G...)}, nil
}
