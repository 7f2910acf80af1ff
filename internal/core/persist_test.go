package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// persistGoals builds one goal per SLA family for a template set.
func persistGoals(templates []workload.Template) map[string]sla.Goal {
	return map[string]sla.Goal{
		"max":        sla.NewMaxLatency(15*time.Minute, templates, sla.DefaultPenaltyRate),
		"perquery":   sla.NewPerQuery(3, templates, sla.DefaultPenaltyRate),
		"average":    sla.NewAverage(10*time.Minute, templates, sla.DefaultPenaltyRate),
		"percentile": sla.NewPercentile(90, 10*time.Minute, templates, sla.DefaultPenaltyRate),
	}
}

// scheduleFingerprint renders the decision-relevant content of a schedule.
func scheduleFingerprint(s *schedule.Schedule) string {
	var b bytes.Buffer
	for _, vm := range s.VMs {
		fmt.Fprintf(&b, "vm%d:", vm.TypeID)
		for _, q := range vm.Queue {
			fmt.Fprintf(&b, " %d/%d", q.TemplateID, q.Tag)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Load(Save(m)) must be bit-identical for every SLA goal family: identical
// re-encoding, identical tree dump, identical compiled-tree predictions on
// 10k random feature vectors, and identical batch schedules — with loads
// and scheduling running concurrently (the test runs under -race in CI).
// For shiftable goals the round trip also pins the retained training data:
// a model shifted after loading must equal a model shifted before saving.
func TestModelRoundTripAllGoalFamilies(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(5), cloud.DefaultVMTypes(2))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 40
	cfg.SampleSize = 5
	cfg.Seed = 17
	adv := MustNewAdvisor(env, cfg)

	for name, goal := range persistGoals(env.Templates) {
		t.Run(name, func(t *testing.T) {
			m, err := adv.Train(goal)
			if err != nil {
				t.Fatal(err)
			}
			data, err := EncodeModel(m)
			if err != nil {
				t.Fatal(err)
			}

			// Concurrent loads: every goroutine decodes its own copy and
			// schedules against it while the others do the same.
			const loaders = 4
			loaded := make([]*Model, loaders)
			var wg sync.WaitGroup
			for i := 0; i < loaders; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					lm, err := DecodeModel(data)
					if err != nil {
						t.Errorf("loader %d: %v", i, err)
						return
					}
					w := workload.NewSampler(lm.Env().Templates, int64(100+i)).Uniform(30)
					if _, err := lm.ScheduleBatch(w); err != nil {
						t.Errorf("loader %d: %v", i, err)
					}
					loaded[i] = lm
				}(i)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			lm := loaded[0]

			// Re-encoding the loaded model reproduces the bytes exactly.
			data2, err := EncodeModel(lm)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, data2) {
				t.Fatal("encode(load(encode(m))) differs from encode(m)")
			}
			if got, want := lm.Dump(), m.Dump(); got != want {
				t.Fatalf("tree dump differs after round trip:\n%s\nvs\n%s", got, want)
			}

			// Compiled-tree predictions on 10k random feature vectors.
			rng := rand.New(rand.NewSource(99))
			dims := features.VectorLen(len(env.Templates))
			x := make([]float64, dims)
			for i := 0; i < 10000; i++ {
				for j := range x {
					x[j] = rng.Float64() * 20
				}
				if lm.CompiledTree().Predict(x) != m.CompiledTree().Predict(x) {
					t.Fatalf("compiled predictions diverge on vector %d", i)
				}
			}

			// Batch schedules are identical on random workloads.
			for trial := 0; trial < 5; trial++ {
				w := workload.NewSampler(env.Templates, int64(trial)*7).Uniform(40)
				s1, err1 := m.ScheduleBatch(w)
				s2, err2 := lm.ScheduleBatch(w)
				if err1 != nil || err2 != nil {
					t.Fatalf("ScheduleBatch: %v, %v", err1, err2)
				}
				if scheduleFingerprint(s1) != scheduleFingerprint(s2) {
					t.Fatalf("trial %d: schedules diverge after round trip", trial)
				}
			}

			// Shiftable goals: adaptation from persisted training data is
			// bit-identical to adaptation from live training data.
			if goal.Shiftable() {
				s1, err1 := m.ShiftedModel(30 * time.Second)
				s2, err2 := lm.ShiftedModel(30 * time.Second)
				if err1 != nil || err2 != nil {
					t.Fatalf("ShiftedModel: %v, %v", err1, err2)
				}
				if s1.Dump() != s2.Dump() {
					t.Fatal("shifted models diverge: persisted training data is not faithful")
				}
			}
		})
	}
}

// Advisor.LoadModel must bind a matching model to the advisor's own live
// environment (pointer-identical Env), and leave a foreign model on its
// reconstructed one.
func TestAdvisorLoadModelRebindsEnv(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(1))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 30
	cfg.SampleSize = 5
	adv := MustNewAdvisor(env, cfg)
	m, err := adv.Train(sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/m.wsdb"
	if err := adv.SaveModel(path, m); err != nil {
		t.Fatal(err)
	}
	lm, err := adv.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if lm.Env() != env {
		t.Fatal("LoadModel did not rebind a matching model to the advisor's environment")
	}

	// A different environment (one fewer template) must not adopt it.
	otherEnv := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(1))
	otherAdv := MustNewAdvisor(otherEnv, cfg)
	lm2, err := otherAdv.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if lm2.Env() == otherEnv {
		t.Fatal("LoadModel bound a model to a mismatched environment")
	}
	if got, want := len(lm2.Env().Templates), 4; got != want {
		t.Fatalf("reconstructed environment has %d templates, want %d", got, want)
	}
}

// A model trained against a custom (non-table) predictor must round-trip
// through the persisted latency matrix: the loaded model schedules
// identically even though the predictor itself cannot be serialized.
func TestModelRoundTripCustomPredictor(t *testing.T) {
	templates := workload.DefaultTemplates(4)
	vmTypes := cloud.DefaultVMTypes(2)
	env := &schedule.Env{
		Templates: templates,
		VMTypes:   vmTypes,
		Pred:      cloud.NewNoisyPredictor(cloud.TablePredictor{}, 0.2, 7),
	}
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 30
	cfg.SampleSize = 5
	m, err := MustNewAdvisor(env, cfg).Train(sla.NewMaxLatency(15*time.Minute, templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	// The reconstructed environment replays the noisy matrix exactly.
	for ti := range templates {
		for vi := range vmTypes {
			l1, ok1 := m.Env().Latency(ti, vi)
			l2, ok2 := lm.Env().Latency(ti, vi)
			if ok1 != ok2 || l1 != l2 {
				t.Fatalf("latency (%d,%d) diverges: (%v,%v) vs (%v,%v)", ti, vi, l1, ok1, l2, ok2)
			}
		}
	}
	w := workload.NewSampler(templates, 5).Uniform(30)
	s1, _ := m.ScheduleBatch(w)
	s2, _ := lm.ScheduleBatch(w)
	if scheduleFingerprint(s1) != scheduleFingerprint(s2) {
		t.Fatal("schedules diverge for a custom-predictor model")
	}
}

// Corrupting an encoded model anywhere must yield a typed store error —
// never a panic, never a silently wrong model.
func TestDecodeModelTypedErrors(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(1))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 20
	cfg.SampleSize = 4
	m, err := MustNewAdvisor(env, cfg).Train(sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}

	typed := func(err error) bool {
		return errors.Is(err, store.ErrBadMagic) || errors.Is(err, store.ErrVersion) ||
			errors.Is(err, store.ErrTruncated) || errors.Is(err, store.ErrCRC) ||
			errors.Is(err, store.ErrCorrupt)
	}

	if _, err := DecodeModel([]byte("not a model")); !errors.Is(err, store.ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
	for _, n := range []int{0, 3, 11, 12, 40, len(data) / 2, len(data) - 1} {
		if _, err := DecodeModel(data[:n]); err == nil || !typed(err) {
			t.Fatalf("truncation to %d bytes: got %v", n, err)
		}
	}
	// Flip one byte at a sample of positions; every damage must surface
	// as a typed error or decode to a model that re-encodes differently
	// (CRC catches payload damage; the content hash catches table-level
	// recombination).
	for pos := 0; pos < len(data); pos += 97 {
		bad := append([]byte(nil), data...)
		bad[pos] ^= 0x55
		lm, err := DecodeModel(bad)
		if err != nil {
			if !typed(err) {
				t.Fatalf("flip at %d: untyped error %v", pos, err)
			}
			continue
		}
		if _, err := EncodeModel(lm); err != nil {
			t.Fatalf("flip at %d: decoded model cannot re-encode: %v", pos, err)
		}
	}
}

// Splicing one model's training-data section into another's container —
// every section individually CRC-intact — must fail the content-hash
// check: foreign sample paths would silently change what a post-restart Shift
// replays.
func TestDecodeModelRejectsSplicedTrainData(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(1))
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 20
	cfg.SampleSize = 4
	adv := MustNewAdvisor(env, cfg)
	goal := sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate)
	mA, err := adv.Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := cfg
	cfgB.Seed = 99
	mB, err := MustNewAdvisor(env, cfgB).Train(goal)
	if err != nil {
		t.Fatal(err)
	}
	dataA, _ := EncodeModel(mA)
	dataB, _ := EncodeModel(mB)
	cA, _ := store.ParseContainer(dataA)
	cB, _ := store.ParseContainer(dataB)
	trainB, _ := cB.MustSection(secTrain)
	var spliced store.Builder
	for _, s := range cA.Sections() {
		p := trainB
		if s.ID != secTrain {
			p, _ = cA.MustSection(s.ID)
		}
		spliced.AddSection(s.ID, p)
	}
	if _, err := DecodeModel(spliced.Bytes()); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("spliced traindata section must fail the content hash, got %v", err)
	}
}

// Container v3 keeps the meta slots of the removed expansion cap and
// search-cache switch, written as 0 and false. A file that sets either holds
// paths that need not be canonical optima — a warm retrain replaying them
// would differ from a cold one — so it must fail to decode as corrupt.
func TestDecodeModelRejectsCappedOrUncachedTraining(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(1))
	cfg := DefaultTrainConfig()
	cfg.NumSamples, cfg.SampleSize = 20, 4
	m, err := MustNewAdvisor(env, cfg).Train(sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := store.ParseContainer(data)
	if err != nil {
		t.Fatal(err)
	}
	// Byte offsets in the meta payload: eight fixed-width fields (hash,
	// training time, rows, cache hits and misses, N, m, seed) and the worker
	// count precede the cap; the keep-data flag sits between the two.
	const capAt, cacheOffAt = 9 * 8, 9*8 + 8 + 1
	for _, at := range []int{-1, capAt, cacheOffAt} {
		var b store.Builder
		for _, s := range c.Sections() {
			p, _ := c.MustSection(s.ID)
			if s.ID == secMeta && at >= 0 {
				p = append([]byte(nil), p...)
				p[at] = 1
			}
			b.AddSection(s.ID, p)
		}
		_, err := DecodeModel(b.Bytes())
		if at < 0 && err != nil {
			t.Fatalf("the rebuilt container does not decode: %v", err)
		}
		if at >= 0 && !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("meta byte %d set: want store.ErrCorrupt, got %v", at, err)
		}
	}
}

// Models that cannot round-trip must refuse to encode rather than persist
// a lie.
func TestEncodeModelRejectsUnsupported(t *testing.T) {
	if _, err := EncodeModel(nil); err == nil {
		t.Fatal("nil model must not encode")
	}
	if _, err := EncodeModel(&Model{}); err == nil {
		t.Fatal("environment-less model must not encode")
	}
}

// Decoded actions are normalised: a crafted file may carry a value in the
// field an action's kind does not read (a Place with a VM type, a Startup
// with a template), which actionCmp would order by but a path key's label
// cannot express. Both decoders — persisted sample paths and cache suffixes
// — must hand the search only actions the scheduling graph could have
// emitted (search's TestLabelOrderIsActionOrder covers those).
func TestDecodeNormalisesStrayActionFields(t *testing.T) {
	env := schedule.NewEnv(workload.DefaultTemplates(3), cloud.DefaultVMTypes(2))
	stray := []graph.Action{
		{Kind: graph.Startup, VMType: 1, Template: 2},
		{Kind: graph.Place, Template: 1, VMType: 1},
	}
	want := []graph.Action{{Kind: graph.Startup, VMType: 1}, {Kind: graph.Place, Template: 1}}

	cache := search.NewTranspositionCache()
	cache.Import([]search.CacheEntry{{Sig: "sig", Cost: 1, Actions: stray}})
	var ce store.Enc
	encodeCacheData(&ce, cache.Sorted(0))
	entries, err := decodeCacheData(ce.Bytes(), env)
	if err != nil {
		t.Fatal(err)
	}
	if got := entries[0].Actions; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("cache suffix decoded as %+v, want %+v", got, want)
	}

	var te store.Enc
	w := &workload.Workload{Templates: env.Templates, Queries: []workload.Query{{TemplateID: 1}}}
	encodeTrainData(&te, []trainSample{{w: w, solvedPath: solvedPath{actions: stray}}})
	samples, err := decodeTrainData(te.Bytes(), env, store.FormatVersion)
	if err != nil {
		t.Fatal(err)
	}
	if got := samples[0].actions; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("sample path decoded as %+v, want %+v", got, want)
	}
}
