package core

import (
	"context"
	"runtime"
	"testing"
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

// Encoding a checkpoint must allocate little more than the checkpoint: the
// container is sized first and written in place, so staging buffers, copies
// of the closed sets or a second copy of the payloads would all show here.
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
	if bound := uint64(len(data)) * 3 / 2; least > bound {
		t.Fatalf("encodeModel allocated %d bytes for a %d-byte checkpoint, want at most %d", least, len(data), bound)
	}
}
