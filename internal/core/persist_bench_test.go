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

// Encoding a checkpoint must allocate the checkpoint and one thing more: the
// container is sized first and written in place, so a staging buffer or a
// second copy of a payload would show here. The one thing more is
// TranspositionCache.Export's sorted snapshot — a 48-byte entry and its share
// of one copy of the signature bytes per cached suffix, 59 B an entry here —
// which was lost in a 6 MB file and is a quarter of a 0.5 MB one. It is
// bounded by what it is, at 64 B an entry, rather than by a wider multiple of
// the file; 16 KiB covers size-class rounding, the tree's flat export and the
// builder's tables (5 KB measured).
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
	if bound := uint64(len(data) + 64*m.searchCache.Len() + 16<<10); least > bound {
		t.Fatalf("encodeModel allocated %d bytes for a %d-byte checkpoint with %d cache entries, want at most %d",
			least, len(data), m.searchCache.Len(), bound)
	}
}
