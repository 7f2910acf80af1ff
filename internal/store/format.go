// Package store implements WiSeDB's durable model persistence: a
// versioned, self-describing binary container format and a crash-safe,
// versioned on-disk model store.
//
// The container format is deliberately dumb — fixed-width little-endian
// fields, no compression, no reflection — so that a reader can verify it
// section by section without trusting any of it:
//
//	offset  size  field
//	0       4     magic "WSDB"
//	4       2     format version (uint16, see FormatVersion)
//	6       2     flags (uint16, reserved, zero)
//	8       4     section count (uint32)
//	12      24×n  section table: {id u32, crc32 u32, offset u64, length u64}
//	...           section payloads (anywhere after the table; the canonical
//	              writer packs them back to back in table order)
//
// Every section payload carries its own CRC32 (IEEE) in the table, so a
// reader can validate exactly the sections it touches — the `wisedb
// inspect` command reads a model's metadata and mix without ever paying for
// (or trusting) the tree section. Section IDs are assigned by the payload
// producer (internal/core for models); the container neither knows nor
// cares what a section means.
//
// Decoding is hardened for hostile input: every length and count is checked
// against the bytes actually present before any allocation sized by it, so
// a corrupt or truncated file yields a typed error (ErrBadMagic, ErrVersion,
// ErrTruncated, ErrCRC) — never a panic, and never an allocation larger
// than O(len(input)).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"
)

// Magic identifies a WiSeDB container file.
const Magic = "WSDB"

// FormatVersion is the container format version this package writes. The
// golden-file test in this package pins the byte-exact encoding of the
// current version; any change to the encoding must bump this constant
// (readers for old versions stay supported explicitly, never accidentally).
//
// Version history:
//
//	1  initial format; model content hash covers every section including
//	   retained training data. No longer read: no deployed file has it.
//	2  canonical-search encoding: adds the optional transposition-cache
//	   section to model files, splits the model hash into a serving-content
//	   hash (goal/env/mix/tree) and an auxiliary hash (training data +
//	   cache), and appends warm/cold sample counters to the meta section
//	3  a training-data sample record is queries, solved-path cost, actions,
//	   variates: the §5 closed sets are no longer written. A v2 record
//	   carried the cost inside an optional closed-set block, which the
//	   reader now bounds-checks and skips
const FormatVersion = 3

// MinFormatVersion is the oldest container version ParseContainer accepts.
const MinFormatVersion = 2

// Typed decode errors. Decoders wrap these (errors.Is matches), adding
// context about which section or field was bad.
var (
	// ErrBadMagic reports input that is not a WiSeDB container at all.
	ErrBadMagic = errors.New("store: bad magic (not a WiSeDB container)")
	// ErrVersion reports a container written by a newer (or unknown)
	// format version.
	ErrVersion = errors.New("store: unsupported format version")
	// ErrTruncated reports input that ends before a length, count, or
	// section it promised.
	ErrTruncated = errors.New("store: truncated input")
	// ErrCRC reports a section whose payload does not match its checksum.
	ErrCRC = errors.New("store: section checksum mismatch")
	// ErrCorrupt reports structurally invalid content inside a section
	// whose checksum was intact (an encoder would never produce it).
	ErrCorrupt = errors.New("store: corrupt section content")
)

const (
	headerLen       = 12
	sectionEntryLen = 24
)

// SectionInfo describes one section of a parsed container.
type SectionInfo struct {
	// ID identifies the section's meaning to the payload producer.
	ID uint32
	// Len is the payload length in bytes.
	Len int
	// CRC is the payload's CRC32 (IEEE).
	CRC uint32
}

// Builder assembles a container. Sections are written in declaration
// order; the canonical encoding packs payloads back to back after the
// table. A section is declared either with its finished payload
// (AddSection) or with its exact size (Reserve), to be encoded in place
// through Section: a producer that sizes every section first builds the
// whole container in one allocation and never copies a payload.
type Builder struct {
	ids      []uint32
	sizes    []int
	payloads [][]byte // AddSection payloads; nil for a reserved section
	// out is the container, allocated once every section is declared;
	// encs[i] writes reserved section i's span of it.
	out  []byte
	encs []Enc
}

// AddSection appends a section. IDs may repeat in principle; readers see
// the first match, so producers should keep them unique.
func (b *Builder) AddSection(id uint32, payload []byte) {
	b.ids = append(b.ids, id)
	b.sizes = append(b.sizes, len(payload))
	b.payloads = append(b.payloads, payload)
}

// Reserve appends a section of exactly size payload bytes, to be written
// through Section.
func (b *Builder) Reserve(id uint32, size int) {
	b.ids = append(b.ids, id)
	b.sizes = append(b.sizes, size)
	b.payloads = append(b.payloads, nil)
}

// Section returns the encoder of the i-th declared section, which must be a
// reserved one; it appends into the section's span of the container. The
// first call lays the container out, so every section must have been
// declared by then.
func (b *Builder) Section(i int) *Enc {
	b.layout()
	return &b.encs[i]
}

// layout allocates the container and places every section.
func (b *Builder) layout() {
	if b.out != nil {
		return
	}
	total := headerLen + sectionEntryLen*len(b.ids)
	for _, n := range b.sizes {
		total += n
	}
	b.out = make([]byte, total)
	b.encs = make([]Enc, len(b.ids))
	off := headerLen + sectionEntryLen*len(b.ids)
	for i, n := range b.sizes {
		span := b.out[off : off+n : off+n]
		if b.payloads[i] != nil {
			copy(span, b.payloads[i])
		} else {
			b.encs[i].buf = span[:0]
		}
		off += n
	}
}

// Bytes serializes the container and returns the builder's own buffer, not
// a copy. It panics if a reserved section was not written to exactly its
// size, which only a producer whose sizing and encoding disagree can cause.
func (b *Builder) Bytes() []byte {
	b.layout()
	out := b.out
	copy(out, Magic)
	binary.LittleEndian.PutUint16(out[4:], FormatVersion)
	binary.LittleEndian.PutUint16(out[6:], 0)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(b.ids)))
	off := headerLen + sectionEntryLen*len(b.ids)
	for i, n := range b.sizes {
		if b.payloads[i] == nil && len(b.encs[i].buf) != n {
			panic(fmt.Sprintf("store: section id %d reserved %d bytes, wrote %d", b.ids[i], n, len(b.encs[i].buf)))
		}
		entry := out[headerLen+i*sectionEntryLen:]
		binary.LittleEndian.PutUint32(entry[0:], b.ids[i])
		binary.LittleEndian.PutUint32(entry[4:], crc32.ChecksumIEEE(out[off:off+n]))
		binary.LittleEndian.PutUint64(entry[8:], uint64(off))
		binary.LittleEndian.PutUint64(entry[16:], uint64(n))
		off += n
	}
	return out
}

// Container is a parsed container: the section table validated against the
// input bounds, with payload checksums verified lazily per section access.
type Container struct {
	data     []byte
	version  uint16
	sections []SectionInfo
	offsets  []uint64
}

// Version returns the container's format version (between MinFormatVersion
// and FormatVersion; ParseContainer rejects anything else).
func (c *Container) Version() uint16 { return c.version }

// ParseContainer validates the header and section table of data. Payload
// bytes are referenced, not copied; checksum verification happens in
// Section, so a caller that reads only some sections validates only those.
func ParseContainer(data []byte) (*Container, error) {
	if len(data) < len(Magic) {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadMagic, len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(data))
	}
	version := binary.LittleEndian.Uint16(data[4:])
	if version < MinFormatVersion || version > FormatVersion {
		return nil, fmt.Errorf("%w: file has version %d, reader supports %d..%d", ErrVersion, version, MinFormatVersion, FormatVersion)
	}
	// The count bound makes the table allocation proportional to the
	// input: a file claiming 2^31 sections but holding 50 bytes fails
	// here instead of allocating gigabytes. The comparison runs in
	// uint64 so a hostile count cannot wrap negative on 32-bit ints.
	rawCount := binary.LittleEndian.Uint32(data[8:])
	if uint64(rawCount) > uint64((len(data)-headerLen)/sectionEntryLen) {
		return nil, fmt.Errorf("%w: section table claims %d sections", ErrTruncated, rawCount)
	}
	count := int(rawCount)
	c := &Container{
		data:     data,
		version:  version,
		sections: make([]SectionInfo, count),
		offsets:  make([]uint64, count),
	}
	for i := 0; i < count; i++ {
		e := data[headerLen+i*sectionEntryLen:]
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("%w: section %d spans [%d,+%d) of %d bytes", ErrTruncated, i, off, length, len(data))
		}
		c.sections[i] = SectionInfo{
			ID:  binary.LittleEndian.Uint32(e[0:]),
			Len: int(length),
			CRC: binary.LittleEndian.Uint32(e[4:]),
		}
		c.offsets[i] = off
	}
	return c, nil
}

// Sections returns the section table in file order.
func (c *Container) Sections() []SectionInfo { return c.sections }

// Section returns the payload of the first section with the given id after
// verifying its checksum. The returned slice aliases the container's input.
// ok is false when no such section exists.
func (c *Container) Section(id uint32) (payload []byte, ok bool, err error) {
	for i, s := range c.sections {
		if s.ID != id {
			continue
		}
		p := c.data[c.offsets[i] : c.offsets[i]+uint64(s.Len)]
		if crc32.ChecksumIEEE(p) != s.CRC {
			return nil, true, fmt.Errorf("%w: section id %d", ErrCRC, id)
		}
		return p, true, nil
	}
	return nil, false, nil
}

// MustSection is Section for sections the format requires: a missing
// section reports ErrTruncated.
func (c *Container) MustSection(id uint32) ([]byte, error) {
	p, ok, err := c.Section(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: missing section id %d", ErrTruncated, id)
	}
	return p, nil
}

// Enc appends fixed-width little-endian fields to a section payload. The
// zero value is ready to use and grows its own buffer; one from
// Builder.Section fills a reserved span; one from Sizer writes nothing and
// only counts, so a producer learns a payload's exact size by running the
// very code that will encode it.
type Enc struct {
	buf []byte
	// sizing makes every method add to n instead of appending.
	sizing bool
	n      int
}

// Sizer returns an encoder that only counts the bytes it is given.
func Sizer() *Enc { return &Enc{sizing: true} }

// Bytes returns the accumulated payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded (or counted) so far.
func (e *Enc) Len() int {
	if e.sizing {
		return e.n
	}
	return len(e.buf)
}

// U8 appends a byte.
func (e *Enc) U8(v uint8) {
	if e.sizing {
		e.n++
		return
	}
	e.buf = append(e.buf, v)
}

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a uint32.
func (e *Enc) U32(v uint32) {
	if e.sizing {
		e.n += 4
		return
	}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a uint64.
func (e *Enc) U64(v uint64) {
	if e.sizing {
		e.n += 8
		return
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends an int64.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 bit pattern (bit-exact round trip, NaN included).
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Duration appends a time.Duration as int64 nanoseconds.
func (e *Enc) Duration(v time.Duration) { e.I64(int64(v)) }

// F64s appends the elements of vs as F64 would, with no length prefix.
func (e *Enc) F64s(vs []float64) {
	if e.sizing {
		e.n += 8 * len(vs)
		return
	}
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(vs))[:off+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(e.buf[off+8*i:], math.Float64bits(v))
	}
}

// String appends a length-prefixed string.
func (e *Enc) String(v string) {
	e.U32(uint32(len(v)))
	if e.sizing {
		e.n += len(v)
		return
	}
	e.buf = append(e.buf, v...)
}

// Dec reads fixed-width little-endian fields from a section payload with a
// sticky error: after the first failure every read returns a zero value and
// Err reports the failure, so decoders can read a whole record and check
// once. Reads never allocate more than the bytes actually present.
type Dec struct {
	data []byte
	off  int
	err  error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{data: payload} }

// Err returns the first read failure, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.data) - d.off }

// Done returns d.Err, additionally failing with ErrCorrupt when unread
// bytes remain — an intact checksum with trailing garbage means the payload
// was not produced by the encoder.
func (d *Dec) Done() error {
	if d.err == nil && d.Remaining() != 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return d.err
}

// fail records the first error.
func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// take returns the next n bytes, or nil after recording ErrTruncated.
func (d *Dec) take(n int) []byte {
	if n < 0 || d.Remaining() < n {
		d.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, d.Remaining()))
		return nil
	}
	p := d.data[d.off : d.off+n]
	d.off += n
	return p
}

// U8 reads a byte.
func (d *Dec) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Bool reads a one-byte boolean; any value other than 0 or 1 is corrupt.
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail(fmt.Errorf("%w: boolean out of range", ErrCorrupt))
		return false
	}
}

// U32 reads a uint32.
func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// U64 reads a uint64.
func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads an int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int64 into an int.
func (d *Dec) Int() int { return int(d.I64()) }

// F64 reads a float64.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Duration reads an int64-nanosecond duration.
func (d *Dec) Duration() time.Duration { return time.Duration(d.I64()) }

// Count reads a element count that prefixes an array of elements at least
// elemSize bytes each, verifying the payload actually holds that many
// before the caller allocates: a corrupt count can never force an
// allocation beyond O(len(payload)).
func (d *Dec) Count(elemSize int) int {
	n := d.Int()
	if d.err != nil {
		return 0
	}
	if n < 0 || (elemSize > 0 && n > d.Remaining()/elemSize) {
		d.fail(fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrTruncated, n, d.Remaining()))
		return 0
	}
	return n
}

// Skip discards the next n bytes, failing like any read when fewer remain.
func (d *Dec) Skip(n int) { d.take(n) }

// String reads a length-prefixed string.
func (d *Dec) String() string {
	n := int(d.U32())
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}
