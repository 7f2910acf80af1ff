package store_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

var update = flag.Bool("update", false, "regenerate golden fixtures (only when bumping the format version)")

const (
	goldenV1Path = "testdata/model_v1.wsdb"
	goldenV2Path = "testdata/model_v2.wsdb"
	goldenV3Path = "testdata/model_v3.wsdb"
)

// goldenModel trains the fixture model: tiny and fully deterministic
// (training is bit-identical at any parallelism; every parameter is
// pinned). It retains training data so the fixture exercises every section
// of the format, including the sample paths and the persisted
// transposition cache.
func goldenModel(t testing.TB) *core.Model {
	t.Helper()
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(2))
	cfg := core.TrainConfig{
		NumSamples:       20,
		SampleSize:       4,
		Seed:             42,
		KeepTrainingData: true,
	}
	m, err := core.MustNewAdvisor(env, cfg).Train(
		sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	// TrainingTime is the one wall-clock field a model carries; pin it so
	// the fixture bytes depend only on the (deterministic) training
	// output.
	m.TrainingTime = 123 * time.Millisecond
	return m
}

// Format v1 is no longer read (no deployed file has it): the committed v1
// fixture — written by the v1 encoder, not regenerable — must be refused
// with the typed version error by every entry point, never a panic.
func TestGoldenModelV1(t *testing.T) {
	golden, err := os.ReadFile(goldenV1Path)
	if err != nil {
		t.Fatalf("missing committed v1 fixture (it cannot be regenerated): %v", err)
	}
	if _, err := store.ParseContainer(golden); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("ParseContainer on the v1 fixture: %v, want store.ErrVersion", err)
	}
	if _, err := core.DecodeModel(golden); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("DecodeModel on the v1 fixture: %v, want store.ErrVersion", err)
	}
	if _, err := core.InspectModel(golden); !errors.Is(err, store.ErrVersion) {
		t.Fatalf("InspectModel on the v1 fixture: %v, want store.ErrVersion", err)
	}
}

// Format v2 is still read: the committed v2 fixture — the same fixture model
// written by the v2 encoder, closed sets and all, not regenerable — must
// load with its closed-set blocks skipped and lose nothing a restart uses.
// It serves the same tree, re-encodes to exactly the current fixture (so
// every path cost came through), and adapts and warm-retrains as warm as the
// live model does.
func TestGoldenModelV2(t *testing.T) {
	old, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatalf("missing committed v2 fixture (it cannot be regenerated): %v", err)
	}
	lm, err := core.DecodeModel(old)
	if err != nil {
		t.Fatalf("today's reader cannot load the v2 fixture: %v", err)
	}
	m := goldenModel(t)
	if lm.Dump() != m.Dump() {
		t.Fatal("the v2 fixture's tree differs from the fixture model's")
	}
	back, err := core.EncodeModel(lm)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenV3Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, golden) {
		t.Fatal("loading the v2 fixture and re-encoding does not give the current fixture")
	}

	tightOld, err := lm.Tighten(0.3)
	if err != nil {
		t.Fatal(err)
	}
	tightLive, err := m.Tighten(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if tightOld.WarmSamples == 0 || tightOld.WarmSamples != tightLive.WarmSamples || tightOld.Dump() != tightLive.Dump() {
		t.Fatalf("Tighten replayed %d samples from the v2 fixture, %d from the live model", tightOld.WarmSamples, tightLive.WarmSamples)
	}
	ctx, mix := context.Background(), []float64{0.3, 0.3, 0.4}
	warmOld, err := core.DriftRetrain(ctx, &core.ModelEpoch{Model: lm}, mix)
	if err != nil {
		t.Fatal(err)
	}
	warmLive, err := core.DriftRetrain(ctx, &core.ModelEpoch{Model: m}, mix)
	if err != nil {
		t.Fatal(err)
	}
	if warmOld.WarmSamples == 0 || warmOld.WarmSamples != warmLive.WarmSamples || warmOld.Dump() != warmLive.Dump() {
		t.Fatalf("a drift retrain replayed %d samples from the v2 fixture, %d from the live model", warmOld.WarmSamples, warmLive.WarmSamples)
	}
}

// The golden-file pin for the current format, in both directions:
//
//  1. Writer stability — encoding the fixture's model today must produce
//     the committed v3 bytes. If an intentional encoding change trips
//     this, bump store.FormatVersion, keep a reader for v3, and regenerate
//     with -update; silently shifting the meaning of version 3 is the one
//     thing a versioned format must never do.
//  2. Reader compatibility — today's reader must load the fixture and
//     reproduce it byte-exactly on re-encode.
func TestGoldenModelV3(t *testing.T) {
	m := goldenModel(t)
	data, err := core.EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenV3Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes) — commit it together with the FormatVersion bump", goldenV3Path, len(data))
	}
	golden, err := os.ReadFile(goldenV3Path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update to create): %v", err)
	}

	if !bytes.Equal(data, golden) {
		t.Fatalf("the v3 encoding drifted: encoding the fixture model produced %d bytes that differ from the committed %d-byte fixture.\n"+
			"If this change is intentional, bump store.FormatVersion (keeping a reader for v3) and regenerate with:\n"+
			"  go test ./internal/store -run TestGoldenModelV3 -update", len(data), len(golden))
	}

	lm, err := core.DecodeModel(golden)
	if err != nil {
		t.Fatalf("today's reader cannot load the v3 fixture: %v", err)
	}
	back, err := core.EncodeModel(lm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, golden) {
		t.Fatal("loading the v3 fixture and re-encoding does not reproduce it byte-exactly")
	}
	if lm.Dump() != m.Dump() {
		t.Fatal("fixture model's tree differs after loading")
	}
}

// The fixture must be inspectable without decoding its tree, reporting its
// format version and section inventory.
func TestGoldenModelInspect(t *testing.T) {
	golden, err := os.ReadFile(goldenV3Path)
	if err != nil {
		t.Skipf("golden fixture %s missing", goldenV3Path)
	}
	info, err := core.InspectModel(golden)
	if err != nil {
		t.Fatal(err)
	}
	if info.FormatVersion != store.FormatVersion {
		t.Fatalf("inspected version %d, want %d", info.FormatVersion, store.FormatVersion)
	}
	if info.Config.Seed != 42 || info.Config.NumSamples != 20 || info.Config.SampleSize != 4 {
		t.Fatalf("inspected provenance wrong: %+v", info.Config)
	}
	if len(info.Templates) != 3 || len(info.VMTypes) != 2 {
		t.Fatalf("inspected environment wrong: %d templates, %d VM types", len(info.Templates), len(info.VMTypes))
	}
	if info.Goal.Name() != "Max" {
		t.Fatalf("inspected goal %q", info.Goal.Name())
	}
	if !info.HasTrainingData || info.Hash == 0 {
		t.Fatalf("inspection missed sections: %+v", info)
	}
	if !info.HasSearchCache {
		t.Fatal("HasSearchCache=false, want true")
	}
}
