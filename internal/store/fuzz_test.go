package store_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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
	golden, err := os.ReadFile(goldenV3Path)
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

// v2 sample 0 of the fixture: the section's sample count, then 4 queries, the
// block flag and the path cost precede the closed-set block, which opens with
// the u32 length of its signature bytes.
const v2FirstBlockOff = 8 + 8 + 4*8 + 1 + 8

// rewriteV2TrainData returns the v2 fixture with its training-data payload
// replaced by edit's result and everything that vouches for it — the section
// CRC, the auxiliary hash in the meta section — recomputed, so the decoder
// trusts the container and reaches the sample records.
func rewriteV2TrainData(t testing.TB, edit func(train []byte) []byte) []byte {
	t.Helper()
	old, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := store.ParseContainer(old)
	if err != nil {
		t.Fatal(err)
	}
	const secMeta, secTrain, secCache = 1, 6, 7
	payloads := map[uint32][]byte{}
	for _, sec := range c.Sections() {
		p, err := c.MustSection(sec.ID)
		if err != nil {
			t.Fatal(err)
		}
		payloads[sec.ID] = append([]byte(nil), p...)
	}
	payloads[secTrain] = edit(payloads[secTrain])
	aux := fnv.New64a()
	aux.Write(payloads[secTrain])
	aux.Write(payloads[secCache])
	meta := payloads[secMeta]
	binary.LittleEndian.PutUint64(meta[len(meta)-24:], aux.Sum64()) // before the warm and cold counts
	var b store.Builder
	for _, sec := range c.Sections() {
		b.AddSection(sec.ID, payloads[sec.ID])
	}
	out := b.Bytes()
	binary.LittleEndian.PutUint16(out[4:], 2) // the builder stamps today's version
	return out
}

// v2BlockSeeds are v2 files damaged where only the skipping reader looks:
// cut off inside sample 0's closed-set block, and with each of the block's
// two lengths claiming more than the payload holds.
func v2BlockSeeds(t testing.TB) map[string][]byte {
	return map[string][]byte{
		"seed_v2_block_truncated": rewriteV2TrainData(t, func(p []byte) []byte { return p[:v2FirstBlockOff+4+10] }),
		"seed_v2_block_oversized_keys": rewriteV2TrainData(t, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[v2FirstBlockOff:], 1<<31)
			return p
		}),
		"seed_v2_block_oversized_count": rewriteV2TrainData(t, func(p []byte) []byte {
			keys := int(binary.LittleEndian.Uint32(p[v2FirstBlockOff:]))
			binary.LittleEndian.PutUint64(p[v2FirstBlockOff+4+keys:], 1<<40)
			return p
		}),
	}
}

// The block seeds must fail where they were damaged — the skip's own bounds
// checks — and not earlier on a checksum; the same rewrite with nothing
// changed must load.
func TestV2ClosedBlockIsBoundsChecked(t *testing.T) {
	if _, err := core.DecodeModel(rewriteV2TrainData(t, func(p []byte) []byte { return p })); err != nil {
		t.Fatalf("an unchanged rewrite of the v2 fixture does not load: %v", err)
	}
	for name, seed := range v2BlockSeeds(t) {
		if _, err := core.DecodeModel(seed); !errors.Is(err, store.ErrTruncated) {
			t.Errorf("%s: %v, want store.ErrTruncated", name, err)
		}
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
	golden, err := os.ReadFile(goldenV3Path)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeModel")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := v2BlockSeeds(t)
	seeds["seed_valid_v3"] = golden
	seeds["seed_truncated_mid"] = golden[:len(golden)/2]
	seeds["seed_crc_flip"] = func() []byte { b := append([]byte(nil), golden...); b[len(b)-9] ^= 0xFF; return b }()
	seeds["seed_header_only"] = golden[:12]
	if v2, err := os.ReadFile(goldenV2Path); err == nil {
		seeds["seed_valid_v2"] = v2 // the old layout, closed sets skipped
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
