package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/dt"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/workload"
)

// Model persistence: the codec between a trained *Model and the
// self-describing container format of internal/store. A model file is a
// store container whose sections are:
//
//	secMeta      training provenance: config (seed, N, m, tree config,
//	             sample weights), wall time, row count, cache counters,
//	             and the parallelism-independent content hash
//	secGoal      the SLA goal spec (family tag + its parameters)
//	secEnv       the environment: template table, VM types, and the
//	             frozen template×VM-type latency matrix
//	secMix       the normalized training arrival mix (optional)
//	secTree      the decision tree, preorder-flattened with its feature
//	             names, label domain, and pruning counts
//	secTrain     retained training data (optional): each sample workload,
//	             its solved path and that path's cost, and the variates of
//	             its draw — what Shift/Adapt/WarmTrain replay after a warm
//	             start. A model keeps no §5 closed sets, in memory or here
//	secCache     the transposition cache's solved suffix subproblems
//	             (optional): a canonical signature-sorted snapshot, so a
//	             warm-started registry retrains warm
//
// Every section is independently checksummed, so `wisedb inspect` reads
// provenance, goal, and mix without paying for — or trusting — the tree
// and training-data sections. Decoding is hardened: every count is bounds-
// checked against the bytes present before allocation, and corrupt input
// yields a typed store error (ErrBadMagic / ErrVersion / ErrTruncated /
// ErrCRC / ErrCorrupt), never a panic.
//
// The content hash is FNV-1a(64) over the goal, env, mix, and tree section
// payloads — everything that determines serving behavior, nothing that
// records how training was scheduled or accelerated — so two models trained
// at different Parallelism (bit-identical by the training determinism pin)
// hash equal, a warm retrain hashes equal to the cold retrain it must
// reproduce, and the hash audits model identity across checkpoints and
// restarts. The auxiliary hash covers the training-data and cache payloads,
// the cross-section tampering check for the sections the content hash does
// not see.
const (
	secMeta  uint32 = 1
	secGoal  uint32 = 2
	secEnv   uint32 = 3
	secMix   uint32 = 4
	secTree  uint32 = 5
	secTrain uint32 = 6
	secCache uint32 = 7
)

// maxPersistedCacheEntries caps the cache section: Export truncates to the
// signature-sorted prefix, so the persisted snapshot stays a pure function
// of the cache contents while bounding checkpoint size (an entry is tens of
// bytes; the cap keeps the section low single-digit MB at worst).
const maxPersistedCacheEntries = 1 << 16

// Goal family tags of secGoal.
const (
	goalTagMax        uint8 = 1
	goalTagPerQuery   uint8 = 2
	goalTagAverage    uint8 = 3
	goalTagPercentile uint8 = 4
)

// EncodeModel serializes a model into the versioned container format. The
// encoding is canonical and timestamp-free: encoding the same model twice
// — or a model and its loaded round trip — yields identical bytes (the
// golden-file test in internal/store pins this).
func EncodeModel(m *Model) ([]byte, error) {
	data, _, err := encodeModel(m)
	return data, err
}

// encodeModel is EncodeModel also returning the content hash, which the
// registry records in checkpoint lineage.
//
// The container is built in one allocation of exactly its final size: every
// section's encoder runs once against a counting store.Sizer, the builder
// lays the container out from those sizes, and the same encoders then write
// straight into their spans of it. Nothing is staged in a growing buffer
// and no payload is copied; the cache keys are read through views of the
// model's own immutable storage.
func encodeModel(m *Model) ([]byte, uint64, error) {
	if m == nil || m.env == nil {
		return nil, 0, errors.New("core: EncodeModel requires a model bound to an environment")
	}
	if m.Tree == nil {
		return nil, 0, errors.New("core: EncodeModel requires a model with a decision tree")
	}
	if err := persistableGoal(m.Goal); err != nil {
		return nil, 0, err
	}
	nodes := m.Tree.Export()
	var cache []search.CacheEntry
	if m.searchCache != nil {
		cache = m.searchCache.Export(maxPersistedCacheEntries)
	}
	var hash, auxHash uint64
	type section struct {
		id    uint32
		write func(e *store.Enc)
	}
	sections := []section{
		{secMeta, func(e *store.Enc) { encodeMeta(e, m, hash, auxHash) }},
		{secGoal, func(e *store.Enc) { encodeGoal(e, m.Goal) }},
		{secEnv, func(e *store.Enc) { encodeEnv(e, m.env) }},
		{secMix, func(e *store.Enc) { encodeMix(e, m.trainingMix) }},
		{secTree, func(e *store.Enc) { encodeTree(e, m.Tree, nodes) }},
	}
	if len(m.samples) > 0 {
		sections = append(sections, section{secTrain, func(e *store.Enc) { encodeTrainData(e, m.samples) }})
	}
	if len(cache) > 0 {
		sections = append(sections, section{secCache, func(e *store.Enc) { encodeCacheData(e, cache) }})
	}

	var b store.Builder
	for _, sec := range sections {
		size := store.Sizer()
		sec.write(size)
		b.Reserve(sec.id, size.Len())
	}
	// Content hash: serving behavior only. Training data and the search
	// cache are covered by the auxiliary hash — see the codec comment. The
	// meta section records both, so it is written last.
	h, ah := fnv.New64a(), fnv.New64a()
	for i, sec := range sections[1:] {
		e := b.Section(i + 1)
		sec.write(e)
		if sec.id == secTrain || sec.id == secCache {
			ah.Write(e.Bytes())
		} else {
			h.Write(e.Bytes())
		}
	}
	hash, auxHash = h.Sum64(), ah.Sum64()
	sections[0].write(b.Section(0))
	return b.Bytes(), hash, nil
}

// DecodeModel reconstructs a model from its encoded form: the goal,
// environment (with latency matrix verification, see decodeEnv), training
// mix, decision tree, and — when present — the retained training data. The
// serving tables are compiled before returning, so the loaded model serves
// its first batch with zero training searches and no lazy build.
func DecodeModel(data []byte) (*Model, error) {
	return decodeModel(data, nil)
}

// decodeModel implements DecodeModel; a non-nil env whose fingerprint
// matches the stored environment is adopted in place of a reconstructed
// one, so Advisor.LoadModel binds loaded models to the advisor's live
// environment (and its real Predictor).
func decodeModel(data []byte, env *schedule.Env) (*Model, error) {
	c, err := store.ParseContainer(data)
	if err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}

	// Read (and CRC-verify) each section's payload exactly once.
	metaPayload, err := c.MustSection(secMeta)
	if err != nil {
		return nil, err
	}
	goalPayload, err := c.MustSection(secGoal)
	if err != nil {
		return nil, err
	}
	envPayload, err := c.MustSection(secEnv)
	if err != nil {
		return nil, err
	}
	mixPayload, err := c.MustSection(secMix)
	if err != nil {
		return nil, err
	}
	treePayload, err := c.MustSection(secTree)
	if err != nil {
		return nil, err
	}
	trainPayload, hasTrain, err := c.Section(secTrain)
	if err != nil {
		return nil, err
	}
	cachePayload, hasCache, err := c.Section(secCache)
	if err != nil {
		return nil, err
	}

	meta, err := decodeMeta(metaPayload)
	if err != nil {
		return nil, err
	}
	// Recompute the recorded hashes over the stored section payloads and
	// compare before decoding anything expensive: a mismatch means the
	// sections were recombined or rewritten (each is individually
	// CRC-intact, so this catches cross-section tampering CRCs cannot,
	// e.g. a foreign traindata section that would silently change
	// post-restart Shift results).
	h := fnv.New64a()
	h.Write(goalPayload)
	h.Write(envPayload)
	h.Write(mixPayload)
	h.Write(treePayload)
	if got := h.Sum64(); got != meta.hash {
		return nil, fmt.Errorf("%w: content hash %016x does not match recorded %016x", store.ErrCorrupt, got, meta.hash)
	}
	ah := fnv.New64a()
	ah.Write(trainPayload)
	ah.Write(cachePayload)
	if got := ah.Sum64(); got != meta.auxHash {
		return nil, fmt.Errorf("%w: auxiliary hash %016x does not match recorded %016x", store.ErrCorrupt, got, meta.auxHash)
	}

	goal, err := decodeGoal(goalPayload)
	if err != nil {
		return nil, err
	}
	stored, err := decodeEnv(envPayload)
	if err != nil {
		return nil, err
	}
	if env == nil || !stored.matches(env) {
		env = stored.build()
	}
	k, nv := len(env.Templates), len(env.VMTypes)
	mix, err := decodeMix(mixPayload)
	if err != nil {
		return nil, err
	}
	if mix != nil && len(mix) != k {
		return nil, fmt.Errorf("%w: training mix has %d weights for %d templates", store.ErrCorrupt, len(mix), k)
	}
	tree, err := decodeTree(treePayload)
	if err != nil {
		return nil, err
	}
	if tree.NumLabels != k+nv {
		return nil, fmt.Errorf("%w: tree has %d labels, environment needs %d", store.ErrCorrupt, tree.NumLabels, k+nv)
	}
	if want := features.VectorLen(k); len(tree.FeatureNames) != want {
		return nil, fmt.Errorf("%w: tree has %d features, environment needs %d", store.ErrCorrupt, len(tree.FeatureNames), want)
	}
	if err := validateGoal(goal, k); err != nil {
		return nil, err
	}

	m := &Model{
		Goal:                goal,
		Tree:                tree,
		TrainingTime:        meta.trainingTime,
		TrainingRows:        meta.trainingRows,
		TrainingConfig:      meta.config,
		TrainingCacheHits:   meta.cacheHits,
		TrainingCacheMisses: meta.cacheMisses,
		WarmSamples:         meta.warmSamples,
		ColdSamples:         meta.coldSamples,
		env:                 env,
		prob:                graph.NewProblem(env, goal),
		trainingMix:         mix,
	}
	if hasTrain {
		samples, tErr := decodeTrainData(trainPayload, env, c.Version())
		if tErr != nil {
			return nil, tErr
		}
		m.samples = samples
	}
	if hasCache {
		entries, cErr := decodeCacheData(cachePayload, env)
		if cErr != nil {
			return nil, cErr
		}
		cache := search.NewTranspositionCache()
		cache.Import(entries)
		m.searchCache = cache
	}
	m.servingTables() // compile the serving form at load time, like Train
	return m, nil
}

// readSection reads and decodes one required section.
func readSection[T any](c *store.Container, id uint32, decode func([]byte) (T, error)) (T, error) {
	var zero T
	p, err := c.MustSection(id)
	if err != nil {
		return zero, err
	}
	v, err := decode(p)
	if err != nil {
		return zero, err
	}
	return v, nil
}

// SaveModelFile atomically writes the model's encoded form at path.
func SaveModelFile(path string, m *Model) error {
	data, err := EncodeModel(m)
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	return nil
}

// LoadModelFile reads and decodes a model file. The environment is
// reconstructed from the stored template table, VM types, and latency
// matrix, so the model serves exactly as it did when saved.
func LoadModelFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	return DecodeModel(data)
}

// SaveModel writes a model trained by (or compatible with) this advisor at
// path — the facade's durable counterpart to Train.
func (a *Advisor) SaveModel(path string, m *Model) error {
	return SaveModelFile(path, m)
}

// LoadModel reads a model file and binds it to the advisor's environment
// when the stored environment matches it exactly (same templates, VM
// types, and latency matrix): the loaded model then shares the advisor's
// live Env — and its Predictor, which online scheduling consults when
// building augmented templates. A model saved from a different environment
// is returned bound to its own reconstructed environment.
func (a *Advisor) LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	return decodeModel(data, a.env)
}

// ---- meta section ----

// modelMeta is the decoded secMeta payload.
type modelMeta struct {
	trainingTime             time.Duration
	trainingRows             int
	cacheHits, cacheMisses   int
	config                   TrainConfig
	hash                     uint64
	auxHash                  uint64
	warmSamples, coldSamples int
}

func encodeMeta(e *store.Enc, m *Model, hash, auxHash uint64) {
	e.U64(hash)
	e.Duration(m.TrainingTime)
	e.Int(m.TrainingRows)
	e.Int(m.TrainingCacheHits)
	e.Int(m.TrainingCacheMisses)
	cfg := m.TrainingConfig
	e.Int(cfg.NumSamples)
	e.Int(cfg.SampleSize)
	e.I64(cfg.Seed)
	e.Int(cfg.Parallelism)
	e.Int(0) // no expansion cap; format v3 keeps the slot
	e.Bool(cfg.KeepTrainingData)
	e.Bool(false) // search cache on; format v3 keeps the slot
	e.Int(cfg.Tree.MinLeaf)
	e.Int(cfg.Tree.MaxDepth)
	e.Bool(cfg.Tree.Prune)
	e.F64(cfg.Tree.PruneConfidence)
	e.Bool(cfg.SampleWeights != nil)
	if cfg.SampleWeights != nil {
		e.Int(len(cfg.SampleWeights))
		e.F64s(cfg.SampleWeights)
	}
	e.U64(auxHash)
	e.Int(m.WarmSamples)
	e.Int(m.ColdSamples)
}

func decodeMeta(p []byte) (modelMeta, error) {
	d := store.NewDec(p)
	var m modelMeta
	m.hash = d.U64()
	m.trainingTime = d.Duration()
	m.trainingRows = d.Int()
	m.cacheHits = d.Int()
	m.cacheMisses = d.Int()
	m.config.NumSamples = d.Int()
	m.config.SampleSize = d.Int()
	m.config.Seed = d.I64()
	m.config.Parallelism = d.Int()
	capped := d.Int() != 0
	m.config.KeepTrainingData = d.Bool()
	uncached := d.Bool()
	m.config.Tree.MinLeaf = d.Int()
	m.config.Tree.MaxDepth = d.Int()
	m.config.Tree.Prune = d.Bool()
	m.config.Tree.PruneConfidence = d.F64()
	if d.Bool() {
		n := d.Count(8)
		if d.Err() == nil {
			m.config.SampleWeights = make([]float64, n)
			for i := range m.config.SampleWeights {
				m.config.SampleWeights[i] = d.F64()
			}
		}
	}
	m.auxHash = d.U64()
	m.warmSamples = d.Int()
	m.coldSamples = d.Int()
	if err := d.Done(); err != nil {
		return m, err
	}
	if capped || uncached {
		// Such a model's paths need not be canonical optima, and replaying
		// them would make a warm retrain differ from a cold one.
		return m, fmt.Errorf("%w: model trained with an expansion cap or without the search cache", store.ErrCorrupt)
	}
	return m, nil
}

// ---- goal section ----

// persistableGoal rejects the goal families encodeGoal cannot write.
func persistableGoal(g sla.Goal) error {
	switch g.(type) {
	case sla.MaxLatency, sla.PerQuery, sla.Average, sla.Percentile:
		return nil
	}
	return fmt.Errorf("core: cannot persist goal family %T (want MaxLatency, PerQuery, Average, or Percentile)", g)
}

// encodeGoal writes a goal persistableGoal accepted.
func encodeGoal(e *store.Enc, g sla.Goal) {
	switch g := g.(type) {
	case sla.MaxLatency:
		e.U8(goalTagMax)
		e.Duration(g.Deadline)
		e.Duration(g.Strictest)
		e.F64(g.Rate)
	case sla.PerQuery:
		e.U8(goalTagPerQuery)
		e.Int(len(g.Deadlines))
		for _, dl := range g.Deadlines {
			e.Duration(dl)
		}
		e.Int(len(g.Strictest))
		for _, st := range g.Strictest {
			e.Duration(st)
		}
		e.F64(g.Rate)
	case sla.Average:
		e.U8(goalTagAverage)
		e.Duration(g.Deadline)
		e.Duration(g.Strictest)
		e.F64(g.Rate)
	case sla.Percentile:
		e.U8(goalTagPercentile)
		e.F64(g.Percent)
		e.Duration(g.Deadline)
		e.Duration(g.Strictest)
		e.F64(g.Rate)
	}
}

func decodeGoal(p []byte) (sla.Goal, error) {
	d := store.NewDec(p)
	var g sla.Goal
	switch tag := d.U8(); tag {
	case goalTagMax:
		g = sla.MaxLatency{Deadline: d.Duration(), Strictest: d.Duration(), Rate: d.F64()}
	case goalTagPerQuery:
		pq := sla.PerQuery{}
		n := d.Count(8)
		if d.Err() == nil {
			pq.Deadlines = make([]time.Duration, n)
			for i := range pq.Deadlines {
				pq.Deadlines[i] = d.Duration()
			}
		}
		n = d.Count(8)
		if d.Err() == nil {
			pq.Strictest = make([]time.Duration, n)
			for i := range pq.Strictest {
				pq.Strictest[i] = d.Duration()
			}
		}
		pq.Rate = d.F64()
		if len(pq.Deadlines) != len(pq.Strictest) {
			return nil, fmt.Errorf("%w: PerQuery goal has %d deadlines, %d strictest", store.ErrCorrupt, len(pq.Deadlines), len(pq.Strictest))
		}
		g = pq
	case goalTagAverage:
		g = sla.Average{Deadline: d.Duration(), Strictest: d.Duration(), Rate: d.F64()}
	case goalTagPercentile:
		pct := sla.Percentile{Percent: d.F64(), Deadline: d.Duration(), Strictest: d.Duration(), Rate: d.F64()}
		if d.Err() == nil && (pct.Percent <= 0 || pct.Percent > 100 || math.IsNaN(pct.Percent)) {
			return nil, fmt.Errorf("%w: Percentile goal with percent %g", store.ErrCorrupt, pct.Percent)
		}
		g = pct
	default:
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, fmt.Errorf("%w: unknown goal family tag %d", store.ErrCorrupt, tag)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return g, nil
}

// validateGoal rejects goal parameters that would misbehave at serving
// time against a k-template environment.
func validateGoal(g sla.Goal, k int) error {
	if pq, ok := g.(sla.PerQuery); ok && len(pq.Deadlines) != k {
		return fmt.Errorf("%w: PerQuery goal has %d deadlines for %d templates", store.ErrCorrupt, len(pq.Deadlines), k)
	}
	rate := 0.0
	switch g := g.(type) {
	case sla.MaxLatency:
		rate = g.Rate
	case sla.PerQuery:
		rate = g.Rate
	case sla.Average:
		rate = g.Rate
	case sla.Percentile:
		rate = g.Rate
	}
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
		return fmt.Errorf("%w: goal penalty rate %g", store.ErrCorrupt, rate)
	}
	return nil
}

// ---- env section ----

// storedEnv is the decoded secEnv payload: the template and VM-type tables
// plus the frozen latency matrix (row-major template×type, −1 = cannot
// run).
type storedEnv struct {
	templates []workload.Template
	vmTypes   []cloud.VMType
	lat       []time.Duration
}

func encodeEnv(e *store.Enc, env *schedule.Env) {
	e.Int(len(env.Templates))
	for _, t := range env.Templates {
		e.String(t.Name)
		e.Duration(t.BaseLatency)
		e.Bool(t.HighRAM)
	}
	e.Int(len(env.VMTypes))
	for _, v := range env.VMTypes {
		e.String(v.Name)
		e.F64(v.StartupCost)
		e.F64(v.RatePerHour)
		e.Duration(v.StartupDelay)
		e.F64(v.HighRAMMultiplier)
		e.Bool(v.SupportsHighRAM)
	}
	for t := range env.Templates {
		for v := range env.VMTypes {
			if lat, ok := env.Latency(t, v); ok {
				e.Duration(lat)
			} else {
				e.Duration(-1)
			}
		}
	}
}

func decodeEnv(p []byte) (*storedEnv, error) {
	d := store.NewDec(p)
	se := &storedEnv{}
	nT := d.Count(13) // name prefix + latency + highram, minimum 13 bytes
	if d.Err() == nil {
		se.templates = make([]workload.Template, nT)
		for i := range se.templates {
			se.templates[i] = workload.Template{
				ID:          i,
				Name:        d.String(),
				BaseLatency: d.Duration(),
				HighRAM:     d.Bool(),
			}
			if d.Err() == nil && se.templates[i].BaseLatency <= 0 {
				return nil, fmt.Errorf("%w: template %d has non-positive latency", store.ErrCorrupt, i)
			}
		}
	}
	nV := d.Count(37)
	if d.Err() == nil {
		se.vmTypes = make([]cloud.VMType, nV)
		for i := range se.vmTypes {
			se.vmTypes[i] = cloud.VMType{
				ID:                i,
				Name:              d.String(),
				StartupCost:       d.F64(),
				RatePerHour:       d.F64(),
				StartupDelay:      d.Duration(),
				HighRAMMultiplier: d.F64(),
				SupportsHighRAM:   d.Bool(),
			}
		}
	}
	if d.Err() == nil {
		if nT == 0 || nV == 0 {
			return nil, fmt.Errorf("%w: environment with %d templates, %d VM types", store.ErrCorrupt, nT, nV)
		}
		// 64-bit arithmetic: nT and nV are each payload-bounded, but
		// their product could wrap a 32-bit int past this check.
		if int64(nT)*int64(nV) > int64(d.Remaining())/8 {
			return nil, fmt.Errorf("%w: latency matrix needs %dx%d entries, payload has %d bytes", store.ErrTruncated, nT, nV, d.Remaining())
		}
		se.lat = make([]time.Duration, nT*nV)
		for i := range se.lat {
			lat := d.Duration()
			if d.Err() == nil && lat <= 0 && lat != -1 {
				return nil, fmt.Errorf("%w: latency matrix entry %d is %d", store.ErrCorrupt, i, lat)
			}
			se.lat[i] = lat
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return se, nil
}

// matches reports whether env has exactly the stored templates, VM types,
// and latency matrix.
func (se *storedEnv) matches(env *schedule.Env) bool {
	if env == nil || len(env.Templates) != len(se.templates) || len(env.VMTypes) != len(se.vmTypes) {
		return false
	}
	for i, t := range se.templates {
		if env.Templates[i] != t {
			return false
		}
	}
	for i, v := range se.vmTypes {
		if env.VMTypes[i] != v {
			return false
		}
	}
	for t := range se.templates {
		for v := range se.vmTypes {
			lat, ok := env.Latency(t, v)
			stored := se.lat[t*len(se.vmTypes)+v]
			if ok != (stored >= 0) || (ok && lat != stored) {
				return false
			}
		}
	}
	return true
}

// build reconstructs a serving environment. When the standard table
// predictor reproduces the stored matrix exactly — every model trained
// against NewEnv does — the rebuilt Env uses it, so derived (augmented-
// template) models behave identically after a restart. Otherwise the model
// was trained against a custom predictor; the stored matrix itself then
// serves the persisted templates, with the table predictor as the fallback
// for augmented templates the matrix cannot know.
func (se *storedEnv) build() *schedule.Env {
	exact := schedule.NewEnv(se.templates, se.vmTypes)
	if se.matches(exact) {
		return exact
	}
	return &schedule.Env{
		Templates: se.templates,
		VMTypes:   se.vmTypes,
		Pred: &matrixPredictor{
			numTemplates: len(se.templates),
			numTypes:     len(se.vmTypes),
			lat:          se.lat,
		},
	}
}

// matrixPredictor replays a persisted latency matrix for the templates it
// covers and falls back to the exact table predictor for templates outside
// it (the augmented "template + wait" specifications of §6.3, whose
// latencies derive from their inflated BaseLatency).
//
// The fallback is an approximation: the original custom predictor's view
// of an augmented template is unknowable from the matrix alone, so for
// custom-predictor models the warm-start bit-determinism guarantee covers
// fresh and shifted batches but not augmented-template retrains — those
// reproduce the table predictor's latencies instead of the custom
// predictor's. Models trained against the standard table predictor (every
// NewEnv environment) are recognized in build and reproduce exactly
// everywhere. Use Advisor.LoadModel to rebind a custom-predictor model to
// its live environment when the predictor is available in-process.
type matrixPredictor struct {
	numTemplates, numTypes int
	lat                    []time.Duration
}

// Latency implements cloud.Predictor.
func (p *matrixPredictor) Latency(t workload.Template, v cloud.VMType) (time.Duration, bool) {
	if t.ID >= 0 && t.ID < p.numTemplates && v.ID >= 0 && v.ID < p.numTypes {
		lat := p.lat[t.ID*p.numTypes+v.ID]
		if lat < 0 {
			return 0, false
		}
		return lat, true
	}
	return cloud.TablePredictor{}.Latency(t, v)
}

// ---- mix section ----

func encodeMix(e *store.Enc, mix []float64) {
	e.Bool(mix != nil)
	if mix != nil {
		e.Int(len(mix))
		e.F64s(mix)
	}
}

func decodeMix(p []byte) ([]float64, error) {
	d := store.NewDec(p)
	var mix []float64
	if d.Bool() {
		n := d.Count(8)
		if d.Err() == nil {
			mix = make([]float64, n)
			for i := range mix {
				mix[i] = d.F64()
				if d.Err() == nil && (math.IsNaN(mix[i]) || math.IsInf(mix[i], 0) || mix[i] < 0) {
					return nil, fmt.Errorf("%w: training mix weight %g", store.ErrCorrupt, mix[i])
				}
			}
		}
	}
	return mix, d.Done()
}

// ---- tree section ----

// encodeTree writes the tree section; nodes is t.Export().
func encodeTree(e *store.Enc, t *dt.Tree, nodes []dt.FlatTreeNode) {
	e.Int(t.NumLabels)
	e.Int(len(t.FeatureNames))
	for _, n := range t.FeatureNames {
		e.String(n)
	}
	e.Int(len(nodes))
	for _, n := range nodes {
		e.Bool(n.Leaf)
		e.U32(uint32(n.Label))
		e.U32(uint32(n.Feature))
		e.F64(n.Threshold)
		e.U32(uint32(n.N))
		e.U32(uint32(n.Errs))
	}
}

func decodeTree(p []byte) (*dt.Tree, error) {
	d := store.NewDec(p)
	numLabels := d.Int()
	nNames := d.Count(4)
	var names []string
	if d.Err() == nil {
		if numLabels <= 0 || numLabels > 1<<20 {
			return nil, fmt.Errorf("%w: tree label domain %d", store.ErrCorrupt, numLabels)
		}
		names = make([]string, nNames)
		for i := range names {
			names[i] = d.String()
		}
	}
	nNodes := d.Count(25) // flags + label + feature + threshold + n + errs
	var nodes []dt.FlatTreeNode
	if d.Err() == nil {
		nodes = make([]dt.FlatTreeNode, nNodes)
		for i := range nodes {
			nodes[i] = dt.FlatTreeNode{
				Leaf:      d.Bool(),
				Label:     int32(d.U32()),
				Feature:   int32(d.U32()),
				Threshold: d.F64(),
				N:         int32(d.U32()),
				Errs:      int32(d.U32()),
			}
		}
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	tree, err := dt.TreeFromExport(nodes, names, numLabels)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", store.ErrCorrupt, err)
	}
	return tree, nil
}

// ---- training-data section ----

func encodeTrainData(e *store.Enc, samples []trainSample) {
	e.Int(len(samples))
	for _, s := range samples {
		e.Int(len(s.w.Queries))
		for _, q := range s.w.Queries {
			e.U32(uint32(q.TemplateID))
			e.U32(uint32(q.Tag))
		}
		// The sample's solved path and its cost let a registry restored
		// from a checkpoint replay unchanged samples instead of re-searching
		// them (Replay checks the walk against the cost); the weighted
		// draw's unit variates let a restored warm retrain rebin the stored
		// draws instead of reseeding 500 samplers.
		e.F64(s.cost)
		encodeActions(e, s.actions)
		e.Int(len(s.variates))
		e.F64s(s.variates)
	}
}

// encodeActions writes a counted action sequence.
func encodeActions(e *store.Enc, actions []graph.Action) {
	e.Int(len(actions))
	for _, a := range actions {
		e.U8(uint8(a.Kind))
		e.U32(uint32(int32(a.Template)))
		e.U32(uint32(int32(a.VMType)))
	}
}

// decodeAction reads one encodeActions record for an environment of k
// templates and nv VM types. The action it returns is normalised — only the
// field its kind reads survives, as in every action the scheduling graph
// emits — so graph.Action.Label order and the search's actionCmp order agree
// on decoded paths and cache suffixes too, whatever a crafted file put in
// the other field. A short read returns the decoder's error, a bad kind or
// an out-of-range field store.ErrCorrupt.
func decodeAction(d *store.Dec, k, nv int) (graph.Action, error) {
	kind, t, vt := graph.ActionKind(d.U8()), int(int32(d.U32())), int(int32(d.U32()))
	switch {
	case d.Err() != nil:
		return graph.Action{}, d.Err()
	case kind == graph.Place && t >= 0 && t < k:
		return graph.Action{Kind: graph.Place, Template: t}, nil
	case kind == graph.Place:
		return graph.Action{}, fmt.Errorf("%w: places template %d of %d", store.ErrCorrupt, t, k)
	case kind == graph.Startup && vt >= 0 && vt < nv:
		return graph.Action{Kind: graph.Startup, VMType: vt}, nil
	case kind == graph.Startup:
		return graph.Action{}, fmt.Errorf("%w: starts VM type %d of %d", store.ErrCorrupt, vt, nv)
	}
	return graph.Action{}, fmt.Errorf("%w: action kind %d", store.ErrCorrupt, kind)
}

// decodeTrainData reads the training-data section of a version-v container.
// A v2 record holds an optional closed-set block where v3 holds the path
// cost; the block's cost is kept and the rest of it skipped, each length
// checked against the bytes present.
func decodeTrainData(p []byte, env *schedule.Env, version uint16) ([]trainSample, error) {
	d := store.NewDec(p)
	k, nv := len(env.Templates), len(env.VMTypes)
	minSample := 32 // query count, cost, action count, variate count
	if version < 3 {
		minSample = 25 // a block flag in place of the cost
	}
	n := d.Count(minSample)
	if d.Err() != nil {
		return nil, d.Err()
	}
	samples := make([]trainSample, 0, n)
	for i := 0; i < n; i++ {
		nq := d.Count(8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		queries := make([]workload.Query, nq)
		for j := range queries {
			queries[j] = workload.Query{TemplateID: int(d.U32()), Tag: int(d.U32())}
			if d.Err() == nil && (queries[j].TemplateID < 0 || queries[j].TemplateID >= k) {
				return nil, fmt.Errorf("%w: sample %d query %d references template %d of %d", store.ErrCorrupt, i, j, queries[j].TemplateID, k)
			}
		}
		s := trainSample{w: &workload.Workload{Templates: env.Templates, Queries: queries}}
		if version >= 3 {
			s.cost = d.F64()
		} else if d.Bool() {
			s.cost = d.F64()
			d.Skip(int(d.U32()))     // interned signature bytes
			d.Skip(16 * d.Count(16)) // offset, length and g per signature
		}
		na := d.Count(9)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if na > 0 {
			s.actions = make([]graph.Action, na)
			for j := range s.actions {
				a, err := decodeAction(d, k, nv)
				if err != nil {
					return nil, fmt.Errorf("sample %d action %d: %w", i, j, err)
				}
				s.actions[j] = a
			}
		}
		nu := d.Count(8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		if nu > 0 {
			s.variates = make([]float64, nu)
			for j := range s.variates {
				v := d.F64()
				if d.Err() == nil && (math.IsNaN(v) || v < 0 || v >= 1) {
					return nil, fmt.Errorf("%w: sample %d variate %d is %g, want [0,1)", store.ErrCorrupt, i, j, v)
				}
				s.variates[j] = v
			}
		}
		samples = append(samples, s)
	}
	return samples, d.Done()
}

// ---- transposition-cache section ----

// encodeCacheData serializes an Export snapshot. Entries are already in
// canonical signature order, so the payload is a pure function of the cache
// contents — encoding the same cache twice yields identical bytes, which the
// canonical-encoding property of EncodeModel depends on.
func encodeCacheData(e *store.Enc, entries []search.CacheEntry) {
	e.Int(len(entries))
	for _, ce := range entries {
		e.String(ce.Sig)
		e.F64(ce.Cost)
		encodeActions(e, ce.Actions)
	}
}

func decodeCacheData(p []byte, env *schedule.Env) ([]search.CacheEntry, error) {
	d := store.NewDec(p)
	k, nv := len(env.Templates), len(env.VMTypes)
	n := d.Count(21) // per entry: sig prefix + cost + action count at minimum
	if d.Err() != nil {
		return nil, d.Err()
	}
	entries := make([]search.CacheEntry, 0, n)
	for i := 0; i < n; i++ {
		ce := search.CacheEntry{Sig: d.String(), Cost: d.F64()}
		na := d.Count(9)
		if d.Err() != nil {
			return nil, d.Err()
		}
		ce.Actions = make([]graph.Action, na)
		for j := range ce.Actions {
			a, err := decodeAction(d, k, nv)
			if err != nil {
				return nil, fmt.Errorf("cache entry %d: %w", i, err)
			}
			ce.Actions[j] = a
		}
		if math.IsNaN(ce.Cost) || math.IsInf(ce.Cost, 0) || ce.Cost < 0 {
			return nil, fmt.Errorf("%w: cache entry %d has cost %g", store.ErrCorrupt, i, ce.Cost)
		}
		entries = append(entries, ce)
	}
	return entries, d.Done()
}

// SectionName renders a model-container section ID for inspection output.
func SectionName(id uint32) string {
	switch id {
	case secMeta:
		return "meta"
	case secGoal:
		return "goal"
	case secEnv:
		return "env"
	case secMix:
		return "mix"
	case secTree:
		return "tree"
	case secTrain:
		return "traindata"
	case secCache:
		return "cache"
	default:
		return fmt.Sprintf("section-%d", id)
	}
}

// ---- inspection ----

// ModelInfo summarizes a model file from its cheap sections only — the
// tree and training-data payloads are sized but never decoded (nor
// checksummed), which is what lets `wisedb inspect` describe a large model
// in microseconds.
type ModelInfo struct {
	// FormatVersion is the container version the file was written with.
	FormatVersion uint16
	// Sections lists every section with its size and checksum.
	Sections []store.SectionInfo
	// Hash is the parallelism-independent model content hash.
	Hash uint64
	// TrainingTime, TrainingRows, and the cache counters mirror the
	// model's provenance fields.
	TrainingTime           time.Duration
	TrainingRows           int
	CacheHits, CacheMisses int
	// Config is the recorded training configuration.
	Config TrainConfig
	// Goal is the reconstructed SLA goal.
	Goal sla.Goal
	// Templates and VMTypes are the environment tables.
	Templates []workload.Template
	VMTypes   []cloud.VMType
	// Mix is the training arrival mix (nil means uniform).
	Mix []float64
	// HasTrainingData reports whether the model retains its samples.
	HasTrainingData bool
	// HasSearchCache reports whether the model carries a persisted
	// transposition-cache snapshot.
	HasSearchCache bool
	// AuxHash is the auxiliary hash over the training-data and cache
	// sections.
	AuxHash uint64
	// WarmSamples and ColdSamples split the training run's samples into
	// warm replays and fresh solves (both zero for cold-trained models).
	WarmSamples, ColdSamples int
}

// InspectModel reads a model's provenance, goal, environment, and mix
// without touching the tree or training-data sections.
func InspectModel(data []byte) (*ModelInfo, error) {
	c, err := store.ParseContainer(data)
	if err != nil {
		return nil, fmt.Errorf("core: inspect model: %w", err)
	}
	meta, err := readSection(c, secMeta, decodeMeta)
	if err != nil {
		return nil, err
	}
	goal, err := readSection(c, secGoal, decodeGoal)
	if err != nil {
		return nil, err
	}
	se, err := readSection(c, secEnv, decodeEnv)
	if err != nil {
		return nil, err
	}
	mix, err := readSection(c, secMix, decodeMix)
	if err != nil {
		return nil, err
	}
	info := &ModelInfo{
		FormatVersion: c.Version(),
		Sections:      c.Sections(),
		Hash:          meta.hash,
		AuxHash:       meta.auxHash,
		TrainingTime:  meta.trainingTime,
		TrainingRows:  meta.trainingRows,
		CacheHits:     meta.cacheHits,
		CacheMisses:   meta.cacheMisses,
		WarmSamples:   meta.warmSamples,
		ColdSamples:   meta.coldSamples,
		Config:        meta.config,
		Goal:          goal,
		Templates:     se.templates,
		VMTypes:       se.vmTypes,
		Mix:           mix,
	}
	for _, s := range c.Sections() {
		switch s.ID {
		case secTrain:
			info.HasTrainingData = true
		case secCache:
			info.HasSearchCache = true
		}
	}
	return info, nil
}
