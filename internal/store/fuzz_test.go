package store_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"wisedb/internal/core"
	"wisedb/internal/store"
)

// typedDecodeError reports whether err is one of the decoder's typed
// failure modes.
func typedDecodeError(err error) bool {
	return errors.Is(err, store.ErrBadMagic) || errors.Is(err, store.ErrVersion) ||
		errors.Is(err, store.ErrTruncated) || errors.Is(err, store.ErrCRC) ||
		errors.Is(err, store.ErrCorrupt)
}

// FuzzDecodeModel pins the model decoder's contract on hostile input: it
// never panics, never allocates unboundedly (every count is checked
// against the bytes present — a violation shows up here as an OOM crash),
// and always returns one of the typed errors. Input that does decode must
// describe a fully usable model: re-encoding it must succeed.
//
// Run locally with: go test ./internal/store -fuzz FuzzDecodeModel
// CI runs it as a bounded smoke (-fuzztime 30s).
func FuzzDecodeModel(f *testing.F) {
	golden, err := os.ReadFile(goldenV2Path)
	if err != nil {
		f.Fatalf("golden fixture missing: %v", err)
	}
	f.Add(golden)
	if v1, err := os.ReadFile(goldenV1Path); err == nil {
		// A format the reader no longer accepts is hostile input too.
		f.Add(v1)
	}
	f.Add([]byte{})
	f.Add([]byte("WSDB"))
	f.Add([]byte("WSDBxxxxxxxxxxxxxxxxxxx"))
	for _, n := range []int{1, 11, 12, 36, len(golden) / 2, len(golden) - 1} {
		if n < len(golden) {
			f.Add(golden[:n])
		}
	}
	for _, pos := range []int{5, 9, 20, 60, 200, len(golden) / 2, len(golden) - 3} {
		bad := append([]byte(nil), golden...)
		bad[pos] ^= 0x41
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := core.DecodeModel(data)
		if err != nil {
			if !typedDecodeError(err) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if _, err := core.EncodeModel(m); err != nil {
			t.Fatalf("decoded model cannot re-encode: %v", err)
		}
	})
}

// A payload claiming astronomically many elements must fail with a typed
// error before any allocation sized by the claim — this test completing at
// all (instead of OOMing) is the assertion, the typed error the check.
func TestDecodeModelBoundedAllocation(t *testing.T) {
	var meta store.Enc
	meta.U64(0)       // hash
	meta.Duration(0)  // training time
	meta.Int(0)       // rows
	meta.Int(0)       // cache hits
	meta.Int(0)       // cache misses
	meta.Int(1)       // num samples
	meta.Int(1)       // sample size
	meta.I64(1)       // seed
	meta.Int(0)       // parallelism
	meta.Int(0)       // max expansions
	meta.Bool(false)  // keep training data
	meta.Bool(false)  // disable cache
	meta.Int(2)       // tree min leaf
	meta.Int(0)       // tree max depth
	meta.Bool(true)   // prune
	meta.F64(0.25)    // confidence
	meta.Bool(true)   // has sample weights...
	meta.Int(1 << 50) // ...claiming 2^50 of them
	var b store.Builder
	b.AddSection(1, meta.Bytes()) // secMeta
	if _, err := core.DecodeModel(b.Bytes()); !typedDecodeError(err) {
		t.Fatalf("want typed error for absurd count, got %v", err)
	}
}

// TestWriteFuzzCorpus materializes a few interesting seeds as committed
// corpus files (testdata/fuzz/FuzzDecodeModel/), so `go test -fuzz` and
// CI's bounded smoke start from real regression inputs. Regenerated with
// -update alongside the golden fixture.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*update {
		t.Skip("corpus regeneration runs with -update")
	}
	golden, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeModel")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"seed_valid_v2":      golden,
		"seed_truncated_mid": golden[:len(golden)/2],
		"seed_crc_flip":      func() []byte { b := append([]byte(nil), golden...); b[len(b)-9] ^= 0xFF; return b }(),
		"seed_header_only":   golden[:12],
	}
	if v1, err := os.ReadFile(goldenV1Path); err == nil {
		seeds["seed_valid_v1"] = v1 // a version the reader refuses
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
