package core

import (
	"math"
	"time"

	"wisedb/internal/dt"
	"wisedb/internal/features"
	"wisedb/internal/graph"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// servingTables holds the read-only, precomputed serving form of a model:
// the decision tree flattened for pointer-chase-free inference, and the
// fresh-VM cost table the dominated-placement guard consults on every
// placement step. Built once per model (train, adapt, or first use) and
// shared by every concurrent ScheduleBatch call.
type servingTables struct {
	compiled *dt.CompiledTree
	// fresh[t*numTypes+v] is the goal-independent cost of serving one
	// query of template t on a fresh VM of type v — start-up fee plus
	// processing fee — and freshLat its completion time there; +Inf / 0
	// when type v cannot run t.
	fresh    []float64
	freshLat []time.Duration
	numTypes int
}

// servingTables returns the model's serving tables, building them on first
// use. Train and adapt call it eagerly so serving never pays the build.
func (m *Model) servingTables() *servingTables {
	m.serveOnce.Do(func() {
		env := m.env
		k, nv := len(env.Templates), len(env.VMTypes)
		t := &servingTables{
			fresh:    make([]float64, k*nv),
			freshLat: make([]time.Duration, k*nv),
			numTypes: nv,
		}
		for tpl := 0; tpl < k; tpl++ {
			for v := 0; v < nv; v++ {
				lat, ok := env.Latency(tpl, v)
				if !ok {
					t.fresh[tpl*nv+v] = math.Inf(1)
					continue
				}
				vt := env.VMTypes[v]
				t.fresh[tpl*nv+v] = vt.StartupCost + vt.RunningCost(lat)
				t.freshLat[tpl*nv+v] = lat
			}
		}
		if m.Tree != nil {
			t.compiled = m.Tree.Compile()
		}
		m.serve = t
	})
	return m.serve
}

// CompiledTree returns the flat serving form of the model's decision tree
// (compiled at training time), or nil for a model without a tree.
func (m *Model) CompiledTree() *dt.CompiledTree { return m.servingTables().compiled }

// servingScratch is the per-call mutable state of ScheduleBatch, drawn from
// the model's sync.Pool so that concurrent batch scheduling from many
// goroutines allocates O(1) amortized per query: the walked state, the
// penalty tracker, the incremental feature extractor, and the feature /
// action / retag buffers are all reused across calls.
type servingScratch struct {
	state   graph.State
	tracker *sla.Tracker
	fs      *features.State
	feat    []float64
	actions []graph.Action
	// key is the batch's decisionMemo key.
	key []byte
	// Retag buffers: tags holds the workload's query tags grouped by
	// template (a counting sort), next[t] the cursor of the first unhanded
	// tag of template t, and start[t] the group boundaries.
	tags  []int
	next  []int
	start []int
}

// getScratch draws a scratch from the pool, constructing one bound to the
// model's goal and problem when the pool is empty.
func (m *Model) getScratch() *servingScratch {
	if sc, ok := m.scratch.Get().(*servingScratch); ok {
		return sc
	}
	return &servingScratch{
		tracker: sla.NewTracker(m.Goal),
		fs:      features.NewState(m.prob),
	}
}

// putScratch returns a scratch to the pool.
func (m *Model) putScratch(sc *servingScratch) { m.scratch.Put(sc) }

// countTemplates sets the walked state's unassigned counts to w's
// per-template counts, reusing the backing array.
func (sc *servingScratch) countTemplates(w *workload.Workload, k int) {
	st := &sc.state
	st.Unassigned = resizeInts(st.Unassigned, k)
	for _, q := range w.Queries {
		st.Unassigned[q.TemplateID]++
	}
}

// resetState readies the scratch's walked state, whose unassigned counts
// countTemplates set, as the start vertex, reusing the backing arrays.
func (sc *servingScratch) resetState() {
	st := &sc.state
	st.OpenType = graph.NoVM
	st.OpenQueue = st.OpenQueue[:0]
	st.Wait = 0
	sc.tracker.Reset()
	st.Acc = sc.tracker
	sc.fs.Reset(st)
	sc.actions = sc.actions[:0]
}

// retag overwrites the placement-order tags graph.BuildScheduleInto writes
// with the workload's real query tags, matching instances template by
// template in workload order: a counting sort over the scratch's integer
// buffers, zero allocations in steady state.
func (sc *servingScratch) retag(s *schedule.Schedule, w *workload.Workload) {
	k := len(w.Templates)
	sc.start = resizeInts(sc.start, k+1)
	for _, q := range w.Queries {
		sc.start[q.TemplateID+1]++
	}
	for t := 0; t < k; t++ {
		sc.start[t+1] += sc.start[t]
	}
	sc.next = resizeInts(sc.next, k)
	copy(sc.next, sc.start[:k])
	sc.tags = resizeInts(sc.tags, len(w.Queries))
	for _, q := range w.Queries {
		sc.tags[sc.next[q.TemplateID]] = q.Tag
		sc.next[q.TemplateID]++
	}
	copy(sc.next, sc.start[:k])
	for vi := range s.VMs {
		for qi := range s.VMs[vi].Queue {
			t := s.VMs[vi].Queue[qi].TemplateID
			if t < 0 || t >= k || sc.next[t] >= sc.start[t+1] {
				continue // schedule/workload mismatch surfaces in Validate
			}
			s.VMs[vi].Queue[qi].Tag = sc.tags[sc.next[t]]
			sc.next[t]++
		}
	}
}

// resizeInts returns s with length n and every element zeroed, reusing the
// backing array when it is large enough.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
