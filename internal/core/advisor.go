// Package core implements the WiSeDB advisor itself: decision-model
// generation (§4), adaptive modeling (§5), strategy recommendation (§6.1),
// batch scheduling (§6.2), and online scheduling with the model-reuse and
// linear-shifting optimizations (§6.3).
//
// Model generation solves N independent sample workloads exactly; the
// advisor runs those searches on a worker pool (TrainConfig.Parallelism)
// with one deterministic sub-seed per sample, so a trained model is
// bit-identical for any worker count. A trained Model is immutable and safe
// for concurrent use: many goroutines may call ScheduleBatch on one Model.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"wisedb/internal/dt"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/search"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// TrainConfig tunes decision-model generation (§4.2: N sample workloads of
// m queries each).
type TrainConfig struct {
	// NumSamples is N, the number of random sample workloads. The paper
	// uses 3000; a few hundred suffice for the relative results and are
	// the default here (see DESIGN.md's scaling note). Zero selects the
	// default.
	NumSamples int
	// SampleSize is m, the queries per sample workload. The paper uses
	// 18. It must stay small enough for exact search to be fast. Zero
	// selects the default.
	SampleSize int
	// Seed makes sampling deterministic: sample i is drawn from a
	// sub-seed derived from (Seed, i), so the same Seed yields the same
	// model at every Parallelism.
	Seed int64
	// SampleWeights, when non-nil, draws sample-workload queries from the
	// weighted template distribution instead of the uniform one (§4.2 uses
	// uniform direct sampling; drift-adapted models are re-trained on the
	// observed arrival mix). Must have one non-negative weight per
	// template with a positive sum.
	SampleWeights []float64
	// Parallelism is the number of worker goroutines solving sample
	// workloads concurrently; 0 selects runtime.GOMAXPROCS(0). Results
	// are identical for every value.
	Parallelism int
	// Tree configures the decision-tree learner.
	Tree dt.Config
	// KeepTrainingData retains each sample's workload, solved path and
	// draw variates on the model so that adaptive modeling (§5) and warm
	// retrains can replay instead of searching.
	KeepTrainingData bool
}

// normalized returns the config with zero values replaced by defaults.
func (cfg TrainConfig) normalized() TrainConfig {
	def := DefaultTrainConfig()
	if cfg.NumSamples == 0 {
		cfg.NumSamples = def.NumSamples
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = def.SampleSize
	}
	if cfg.Tree == (dt.Config{}) {
		cfg.Tree = def.Tree
	}
	return cfg
}

// validate reports the first problem that would make training misbehave.
func (cfg TrainConfig) validate() error {
	switch {
	case cfg.NumSamples < 0:
		return fmt.Errorf("core: TrainConfig.NumSamples must be positive, got %d", cfg.NumSamples)
	case cfg.SampleSize < 0:
		return fmt.Errorf("core: TrainConfig.SampleSize must be positive, got %d", cfg.SampleSize)
	case cfg.Parallelism < 0:
		return fmt.Errorf("core: TrainConfig.Parallelism must be >= 0, got %d", cfg.Parallelism)
	}
	return nil
}

// DefaultTrainConfig returns the configuration used by the experiments.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		NumSamples:       500,
		SampleSize:       12,
		Seed:             1,
		Tree:             dt.DefaultConfig(),
		KeepTrainingData: true,
	}
}

// PaperTrainConfig returns the paper's §7.1 training scale (N=3000, m=18).
func PaperTrainConfig() TrainConfig {
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 3000
	cfg.SampleSize = 18
	return cfg
}

// Advisor generates workload-management models for one application
// environment (template set + VM types + latency predictor). An Advisor is
// safe for concurrent use.
type Advisor struct {
	env *schedule.Env
	cfg TrainConfig
}

// NewAdvisor returns an Advisor for the environment. Zero-valued fields of
// cfg are filled with defaults (a zero-value TrainConfig trains at the
// default scale); invalid values — negative counts, a nil or empty
// environment — are reported as an error rather than a panic.
func NewAdvisor(env *schedule.Env, cfg TrainConfig) (*Advisor, error) {
	if env == nil {
		return nil, errors.New("core: NewAdvisor requires a non-nil environment")
	}
	if len(env.Templates) == 0 {
		return nil, errors.New("core: NewAdvisor requires at least one template")
	}
	if len(env.VMTypes) == 0 {
		return nil, errors.New("core: NewAdvisor requires at least one VM type")
	}
	cfg = cfg.normalized()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.SampleWeights != nil {
		if len(cfg.SampleWeights) != len(env.Templates) {
			return nil, fmt.Errorf("core: TrainConfig.SampleWeights has %d weights for %d templates", len(cfg.SampleWeights), len(env.Templates))
		}
		total := 0.0
		for i, w := range cfg.SampleWeights {
			if w < 0 {
				return nil, fmt.Errorf("core: TrainConfig.SampleWeights[%d] is negative (%g)", i, w)
			}
			total += w
		}
		if total <= 0 {
			return nil, errors.New("core: TrainConfig.SampleWeights must have a positive sum")
		}
	}
	return &Advisor{env: env, cfg: cfg}, nil
}

// MustNewAdvisor is NewAdvisor panicking on error, for examples and tests
// with statically known-good configuration.
func MustNewAdvisor(env *schedule.Env, cfg TrainConfig) *Advisor {
	a, err := NewAdvisor(env, cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Env returns the advisor's environment.
func (a *Advisor) Env() *schedule.Env { return a.env }

// Config returns the advisor's training configuration (normalized).
func (a *Advisor) Config() TrainConfig { return a.cfg }

// solvedPath is one sample workload's canonical search result under a
// model's goal: the exact optimal schedule and its cost. It is what a later
// search of the same workload can replay instead of searching — a warm
// retrain under the same goal, a tightened or shifted build under a
// stricter one (search.Searcher.Replay). Empty for non-monotonic goals'
// one-shot models and for checkpoints that predate it.
type solvedPath struct {
	cost    float64
	actions []graph.Action
}

// trainSample retains one sample workload, its solved path and the variates
// of its draw: what adaptive re-training and warm retrains replay. No §5
// closed set is kept (see Model.Adapt).
type trainSample struct {
	w *workload.Workload
	solvedPath
	// variates holds the unit variates the sample's weighted draw
	// consumed, one per query. A warm retrain with the same seed and
	// sample size rebins them under the drifted mix
	// (workload.WeightedFromVariates) instead of reconstructing and
	// reseeding a sampler per sample. Nil for uniform draws.
	variates []float64
}

// Model is a trained workload-management strategy (§4.5): a decision tree
// over the §4.4 features whose leaves are scheduling actions. A model is
// bound to the goal and environment it was trained for.
//
// A Model is immutable after training and safe for concurrent use:
// ScheduleBatch, Adapt, and the read accessors may be called from many
// goroutines at once.
type Model struct {
	// Goal is the performance goal the model was trained for.
	Goal sla.Goal
	// Tree is the learned decision tree.
	Tree *dt.Tree
	// TrainingTime is the wall time spent generating the model.
	TrainingTime time.Duration
	// TrainingRows is the number of (features, decision) pairs trained on.
	TrainingRows int
	// TrainingConfig records the scale the model was trained at; online
	// scheduling re-trains augmented models at the same scale unless
	// overridden.
	TrainingConfig TrainConfig
	// TrainingCacheHits and TrainingCacheMisses aggregate the
	// transposition-cache lookups of the sample searches that built this
	// model (both zero under a non-monotonic goal, which has no cache).
	TrainingCacheHits, TrainingCacheMisses int
	// WarmSamples and ColdSamples split the training run's sample
	// workloads into replays of a stored path — a prior epoch's (WarmTrain)
	// or, under Adapt and ShiftedModel, a looser goal's that the replay
	// certificate accepted — and fresh exact solves. A cold Train reports
	// all samples cold.
	WarmSamples, ColdSamples int

	// searches counts the A* searches the build ran: ColdSamples less the
	// repeated start states startOnce answered without one.
	searches int

	env     *schedule.Env
	prob    *graph.Problem
	samples []trainSample
	// shifted is what a one-shot shifted model keeps in place of samples:
	// the canonical result of each of its base model's sample workloads
	// under this model's goal, by sample index. A later, tighter shift of
	// the same base replays them (see adapt); nothing else reads them.
	shifted []solvedPath
	// searchCache is the training run's transposition cache (nil under a
	// non-monotonic goal and in one-shot shifted models): the solved suffix
	// subproblems of the sample searches. WarmTrain seeds the next epoch's
	// searches from it, and persistence snapshots it so warm-started
	// registries retrain warm. Immutable after training, like the rest of
	// the model.
	searchCache *search.TranspositionCache
	// trainingMix is the normalized template distribution the sample
	// workloads were drawn from: uniform unless the model was trained with
	// SampleWeights (drift-adapted models target the observed arrival
	// mix). The drift detector compares live arrival histograms against
	// it. Nil for directly constructed models (tests); TrainingMix()
	// falls back to uniform.
	trainingMix []float64

	// serveOnce builds serve, the precomputed serving tables (compiled
	// tree + fresh-VM cost matrix); Train/Adapt build them eagerly,
	// directly constructed models (tests) fall back to first use.
	serveOnce sync.Once
	serve     *servingTables
	// scratch pools per-call serving state for ScheduleBatch, so
	// concurrent batch scheduling allocates O(1) amortized per query.
	scratch sync.Pool // *servingScratch
	// memo holds the action paths of the batch compositions served so
	// far (see decisionMemo).
	memo decisionMemo
}

// Env returns the environment the model is bound to.
func (m *Model) Env() *schedule.Env { return m.env }

// TrainingMix returns a copy of the normalized template distribution the
// model's sample workloads were drawn from — the arrival mix it was built to
// serve. Models trained without SampleWeights (and directly constructed
// ones) report the uniform distribution.
func (m *Model) TrainingMix() []float64 {
	if m.trainingMix != nil {
		return append([]float64(nil), m.trainingMix...)
	}
	return uniformMix(len(m.env.Templates))
}

// uniformMix returns the uniform distribution over k templates.
func uniformMix(k int) []float64 {
	mix := make([]float64, k)
	for i := range mix {
		mix[i] = 1 / float64(k)
	}
	return mix
}

// normalizedMix returns weights scaled to sum to 1, or the uniform mix for
// nil weights.
func normalizedMix(weights []float64, k int) []float64 {
	if weights == nil {
		return uniformMix(k)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	mix := make([]float64, len(weights))
	for i, w := range weights {
		mix[i] = w / total
	}
	return mix
}

// Train generates a decision model for the goal (§4): it samples N random
// workloads of m queries, solves each exactly on the scheduling graph,
// extracts the §4.4 features from every decision on every optimal path, and
// fits a decision tree. The N searches run on the configured worker pool.
func (a *Advisor) Train(goal sla.Goal) (*Model, error) {
	return a.TrainContext(context.Background(), goal)
}

// TrainContext is Train with cancellation: ctx aborts the remaining sample
// searches and returns ctx.Err().
func (a *Advisor) TrainContext(ctx context.Context, goal sla.Goal) (*Model, error) {
	return build(ctx, a.env, goal, a.cfg, nil, normalizedMix(a.cfg.SampleWeights, len(a.env.Templates)), sources{draw: true})
}

// trainingSet is a build's tree dataset with the scratch every optimal
// path is extracted through: one graph state walked in place, the feature
// state tracking it, and one row buffer. The dataset copies the rows it has
// not seen, so all of it is reused path after path and a path costs no
// allocation once the buffers have grown.
type trainingSet struct {
	ds   *dt.Dataset
	prob *graph.Problem
	fs   *features.State
	// st is the walked vertex. Its accumulator is acc, advanced in place
	// with the arithmetic graph.Apply's immutable accumulators use, so every
	// penalty a row reads is the one the state Apply reaches would report.
	st  graph.State
	acc *sla.Tracker
	// buf holds a path's feature rows back to back; x and y are the batch
	// handed to Ingest.
	buf []float64
	x   [][]float64
	y   []int
}

func newTrainingSet(prob *graph.Problem) *trainingSet {
	k := len(prob.Env.Templates)
	return &trainingSet{
		ds:   &dt.Dataset{FeatureNames: features.Names(k), NumLabels: k + len(prob.Env.VMTypes)},
		prob: prob,
		fs:   features.NewState(prob),
		st:   graph.State{Unassigned: make([]int, k)},
		acc:  sla.NewTracker(prob.Goal),
	}
}

// addActions converts each decision on an optimal path — actions, taken
// from w's start vertex — into a (features, action-label) training
// instance, its features those of the vertex the decision was made at. The
// rows are ingested as one batch per path (dt.Ingest is defined as Add row
// by row, so batching changes nothing about the dataset).
func (t *trainingSet) addActions(w *workload.Workload, actions []graph.Action) {
	k := t.fs.NumTemplates()
	width := features.VectorLen(k)
	t.buf = slices.Grow(t.buf[:0], len(actions)*width)
	t.x, t.y = t.x[:0], t.y[:0]
	st := &t.st
	clear(st.Unassigned)
	for _, q := range w.Queries {
		st.Unassigned[q.TemplateID]++
	}
	st.OpenType, st.OpenQueue, st.Wait = graph.NoVM, st.OpenQueue[:0], 0
	t.acc.Reset()
	st.Acc = t.acc
	t.fs.Reset(st)
	for i, a := range actions {
		t.x = append(t.x, t.fs.AppendTo(t.buf[i*width:i*width:(i+1)*width], st))
		t.y = append(t.y, a.Label(k))
		t.prob.ApplyInPlace(st, a)
		t.fs.Apply(a)
	}
	t.ds.Ingest(t.x, t.y)
}

// ActionName renders an action label for model dumps.
func (m *Model) ActionName(label int) string {
	a := graph.ActionFromLabel(label, len(m.env.Templates))
	if a.Kind == graph.Place {
		return fmt.Sprintf("assign-T%d", a.Template)
	}
	return fmt.Sprintf("new-VM-%s", m.env.VMTypes[a.VMType].Name)
}

// Dump renders the decision tree in the style of the paper's Figure 6.
func (m *Model) Dump() string { return m.Tree.Dump(m.ActionName) }
