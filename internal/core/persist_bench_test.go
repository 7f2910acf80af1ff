package core

import (
	"context"
	"runtime"
	"testing"

	"wisedb/internal/store"
)

// checkpointedModel is the model a serving registry checkpoints after drift:
// paper scale (N=500, m=12, five templates, a weighted mix), one warm
// DriftRetrain on, so retained samples carry action paths and variates and
// the search cache section is present.
func checkpointedModel(tb testing.TB) *Model {
	tb.Helper()
	sc := retrainScenarios[0]
	m, err := DriftRetrain(context.Background(), benchRetrainEpoch(tb, sc.prior), sc.to)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkEncodeModel measures what every hot swap pays in the background:
// encoding the serving-scale model for its checkpoint.
func BenchmarkEncodeModel(b *testing.B) {
	m := checkpointedModel(b)
	data, err := EncodeModel(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeModel(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "bytes/model")
}

// BenchmarkCheckpointCommit measures the whole background checkpoint of a hot
// swap, as ModelRegistry.checkpoint runs it: the encode, then the store's
// durable commit of the file (payload write, manifest rewrite, their fsyncs,
// the retention prune).
func BenchmarkCheckpointCommit(b *testing.B) {
	m := checkpointedModel(b)
	ms, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, hash, err := encodeModel(m)
		if err != nil {
			b.Fatal(err)
		}
		lin := store.Lineage{Epoch: uint64(i), Parent: uint64(max(i-1, 0)), Reason: "bench", ModelHash: hash}
		if err := ms.Commit(data, lin); err != nil {
			b.Fatal(err)
		}
	}
}

// What a checkpoint holds is what a restart reads, and its size is what
// every hot swap pays for in the background. The serving models — the
// uniform base and an epoch a drift retrain produced, whose samples also
// carry their draws' variates — must stay under 1 MiB a file and 400 B of
// training data a sample (measured: 0.53 MB and 0.54 MB, 274 B and 365 B).
// A closed set written back, at 12 KB a sample, would be forty times that.
func TestCheckpointSizeBudget(t *testing.T) {
	skipUnlessServingScale(t)
	for name, m := range map[string]*Model{"base": servingBaseModel(t), "drift epoch": checkpointedModel(t)} {
		data, err := EncodeModel(m)
		if err != nil {
			t.Fatal(err)
		}
		info, err := InspectModel(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 1<<20 {
			t.Errorf("%s: the checkpoint is %d bytes, want at most 1 MiB", name, len(data))
		}
		for _, sec := range info.Sections {
			if sec.ID == secTrain && sec.Len > 400*len(m.samples) {
				t.Errorf("%s: %d bytes of training data for %d samples, want at most 400 B a sample", name, sec.Len, len(m.samples))
			}
		}
	}
}

// Encoding a checkpoint must allocate the checkpoint and little more: the
// container is sized first and written in place, so a staging buffer or a
// second copy of a payload would show here, and the cache section is
// written from TranspositionCache.Sorted's view — one 4-byte reference per
// cached suffix, over the cache's own signature bytes — so an exported
// entry slice with copied signatures (59 B an entry, 169 KB beside a
// 0.54 MB file) would show too. The bound allows 8 B an entry for
// size-class rounding, and 16 KiB covers the tree's flat export and the
// builder's tables (6 KB measured beside 11 KB of references).
func TestEncodeModelAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound is meaningless under the race detector")
	}
	m := checkpointedModel(t)
	data, _, err := encodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	// The least of a few runs: a background GC cycle can only add.
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		if _, _, err := encodeModel(m); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if bound := uint64(len(data) + 8*m.searchCache.Len() + 16<<10); least > bound {
		t.Fatalf("encodeModel allocated %d bytes for a %d-byte checkpoint with %d cache entries, want at most %d",
			least, len(data), m.searchCache.Len(), bound)
	}
}

// A registry checkpoint lays its container out in a pooled buffer and
// returns it once the commit is done, so with the pool warm a checkpoint
// allocates what its encode and the store's commit need besides the
// container — the sorted view of the cache, the builder's tables, the
// manifest rewrite — and not the model's size again. The least of five
// checkpoints must allocate less than the model: a container allocated
// per checkpoint is the model's size on its own.
func TestCheckpointAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound is meaningless under the race detector")
	}
	r := NewModelRegistry(checkpointedModel(t))
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cur := r.Current()
	checkpoint := func(epoch uint64) {
		lin := store.Lineage{Epoch: epoch, Parent: max(epoch, 1) - 1, Reason: "test", Mix: cur.Mix}
		if err := r.checkpoint(ms, cur, lin); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint(0) // warms the pool
	size := uint64(r.lastCheckpointBytes())
	// The least of a few runs: a background GC cycle can only add, and
	// two of them empty the pool.
	least := ^uint64(0)
	var before, after runtime.MemStats
	for epoch := uint64(1); epoch <= 5; epoch++ {
		runtime.ReadMemStats(&before)
		checkpoint(epoch)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("least of 5 registry checkpoints of a %d-byte model: %d bytes", size, least)
	if least >= size {
		t.Fatalf("a registry checkpoint allocated %d bytes, want less than the %d-byte model", least, size)
	}
}
