package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// buildTestContainer assembles a small two-section container.
func buildTestContainer() []byte {
	var b Builder
	var e1, e2 Enc
	e1.U32(7)
	e1.String("hello")
	e1.F64(3.25)
	e2.Int(-12)
	e2.Duration(90)
	b.AddSection(1, e1.Bytes())
	b.AddSection(2, e2.Bytes())
	return b.Bytes()
}

func TestContainerRoundTrip(t *testing.T) {
	data := buildTestContainer()
	c, err := ParseContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Sections()); got != 2 {
		t.Fatalf("want 2 sections, got %d", got)
	}
	p, err := c.MustSection(1)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDec(p)
	if v := d.U32(); v != 7 {
		t.Errorf("U32: got %d", v)
	}
	if v := d.String(); v != "hello" {
		t.Errorf("String: got %q", v)
	}
	if v := d.F64(); v != 3.25 {
		t.Errorf("F64: got %g", v)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	p2, err := c.MustSection(2)
	if err != nil {
		t.Fatal(err)
	}
	d2 := NewDec(p2)
	if v := d2.Int(); v != -12 {
		t.Errorf("Int: got %d", v)
	}
	if v := d2.Duration(); v != 90 {
		t.Errorf("Duration: got %d", v)
	}
	if err := d2.Done(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Section(9); ok || err != nil {
		t.Errorf("missing section: ok=%v err=%v", ok, err)
	}
}

// Every way of damaging a container must map to the right typed error —
// never a panic, never success.
func TestContainerTypedErrors(t *testing.T) {
	good := buildTestContainer()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := ParseContainer(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
		if _, err := ParseContainer(nil); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("empty input: want ErrBadMagic, got %v", err)
		}
	})

	t.Run("unsupported version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(bad[4:], FormatVersion+1)
		if _, err := ParseContainer(bad); !errors.Is(err, ErrVersion) {
			t.Fatalf("want ErrVersion, got %v", err)
		}
	})

	t.Run("truncation at every prefix", func(t *testing.T) {
		for n := 0; n < len(good); n++ {
			_, err := ParseContainer(good[:n])
			if err == nil {
				// A prefix that still parses must fail on section access.
				c, _ := ParseContainer(good[:n])
				if _, err2 := c.MustSection(1); err2 == nil {
					if _, err3 := c.MustSection(2); err3 == nil {
						t.Fatalf("prefix of %d/%d bytes decodes fully", n, len(good))
					}
				}
				continue
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
				t.Fatalf("prefix %d: untyped error %v", n, err)
			}
		}
	})

	t.Run("absurd section count does not allocate", func(t *testing.T) {
		bad := append([]byte(nil), good[:headerLen]...)
		binary.LittleEndian.PutUint32(bad[8:], 1<<31-1)
		if _, err := ParseContainer(bad); !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})

	t.Run("payload corruption fails CRC", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)-1] ^= 0xFF
		c, err := ParseContainer(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.MustSection(2); !errors.Is(err, ErrCRC) {
			t.Fatalf("want ErrCRC, got %v", err)
		}
		// The undamaged section still reads.
		if _, err := c.MustSection(1); err != nil {
			t.Fatalf("undamaged section: %v", err)
		}
	})
}

// A corrupt element count inside a section must fail before allocating.
func TestDecCountBounded(t *testing.T) {
	var e Enc
	e.Int(1 << 40) // claims 2^40 elements
	d := NewDec(e.Bytes())
	if n := d.Count(8); n != 0 || !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("Count accepted absurd count: n=%d err=%v", n, d.Err())
	}
}

// Dec must report trailing garbage: an intact CRC over a longer-than-
// expected payload means the encoder never produced it.
func TestDecDoneRejectsTrailing(t *testing.T) {
	var e Enc
	e.U32(1)
	e.U8(0xAB)
	d := NewDec(e.Bytes())
	d.U32()
	if err := d.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt on trailing bytes, got %v", err)
	}
}

// FuzzParseContainer pins the container layer's no-panic, typed-error
// contract on arbitrary input.
func FuzzParseContainer(f *testing.F) {
	f.Add(buildTestContainer())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseContainer(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		for _, s := range c.Sections() {
			if _, _, err := c.Section(s.ID); err != nil && !errors.Is(err, ErrCRC) {
				t.Fatalf("untyped section error: %v", err)
			}
		}
	})
}

// A container whose sections are sized by a Sizer and then encoded in place
// must be byte for byte the one AddSection builds from finished payloads,
// and the bulk appends must write what their element-wise forms write.
func TestReservedSectionsMatchAddSection(t *testing.T) {
	f64s := []float64{0.5, -3, 1e18}
	first := func(e *Enc) {
		e.U8(9)
		e.Bool(true)
		e.String("sig")
		e.F64s(f64s)
	}
	second := func(e *Enc) { e.Int(-12) }

	var e1, e2 Enc
	e1.U8(9)
	e1.Bool(true)
	e1.String("sig")
	for _, v := range f64s {
		e1.F64(v)
	}
	second(&e2)
	var want Builder
	want.AddSection(1, e1.Bytes())
	want.AddSection(2, e2.Bytes())

	var got Builder
	for id, write := range []func(*Enc){first, second} {
		size := Sizer()
		write(size)
		got.Reserve(uint32(id+1), size.Len())
	}
	second(got.Section(1)) // any order
	first(got.Section(0))
	if g, w := got.Bytes(), want.Bytes(); string(g) != string(w) {
		t.Fatalf("reserved container differs from AddSection's:\n%x\n%x", g, w)
	}
}

// Writing a reserved section short of, or past, its size is a producer bug
// Bytes must refuse to paper over.
func TestReservedSectionSizeMismatchPanics(t *testing.T) {
	for name, write := range map[string]func(*Enc){
		"short": func(e *Enc) { e.U32(1) },
		"long":  func(e *Enc) { e.U64(1); e.U32(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Bytes accepted a reserved section not written to its size", name)
				}
			}()
			var b Builder
			b.Reserve(1, 8)
			write(b.Section(0))
			b.Bytes()
		}()
	}
}

// A builder handed a buffer to reuse lays the same container out in it —
// whatever the buffer held before — when it is large enough, and otherwise
// allocates one with room to grow; StringBytes writes what String writes.
func TestBuilderReuse(t *testing.T) {
	build := func(b *Builder) []byte {
		size := Sizer()
		size.StringBytes([]byte("signature"))
		b.Reserve(7, size.Len())
		b.Section(0).StringBytes([]byte("signature"))
		return b.Bytes()
	}
	var e Enc
	e.String("signature")
	var fresh Builder
	fresh.AddSection(7, e.Bytes())
	want := fresh.Bytes()

	big := bytes.Repeat([]byte{0xff}, len(want)+10)
	var b Builder
	b.Reuse(big[:0])
	if got := build(&b); !bytes.Equal(got, want) || &got[0] != &big[0] {
		t.Fatalf("reused a large enough buffer: %x (aliases it: %v), want %x", got, &got[0] == &big[0], want)
	}
	small := make([]byte, 0, len(want)-1)
	var c Builder
	c.Reuse(small)
	if got := build(&c); !bytes.Equal(got, want) || cap(got) <= len(got) {
		t.Fatalf("outgrew the buffer: %x with capacity %d, want %x with room to spare", got, cap(got), want)
	}
}
