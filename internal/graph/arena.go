package graph

import (
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Arena bump-allocates States and their backing int slices for a search
// that generates many short-lived branching states. All allocations live
// until Reset; a search resets the arena between runs and Release()s it
// before parking it in a pool so idle arenas pin nothing.
//
// An Arena is owned by exactly one search at a time and is not safe for
// concurrent use.
type Arena struct {
	stateChunks [][]State
	chunk, used int

	slabs     [][]int
	slab, off int
}

const (
	stateChunkSize = 512
	intSlabSize    = 4096
)

// Reset rewinds the arena, retaining all allocated capacity. States handed
// out before the call must no longer be used.
func (a *Arena) Reset() {
	a.chunk, a.used = 0, 0
	a.slab, a.off = 0, 0
}

// Release zeroes every State the arena handed out since its last Reset, so
// that a pooled idle arena does not pin accumulators or slice backing
// arrays, then rewinds. The int slabs hold no pointers and are kept as-is.
func (a *Arena) Release() {
	for i := 0; i <= a.chunk && i < len(a.stateChunks); i++ {
		c := a.stateChunks[i]
		n := stateChunkSize
		if i == a.chunk {
			n = a.used
		}
		for j := 0; j < n; j++ {
			c[j] = State{}
		}
	}
	a.Reset()
}

// newState bump-allocates a State. It may hold a previous search's values
// (Reset does not clear); ApplyArena sets every field, one by one — a State
// literal would be built on the stack and copied over.
func (a *Arena) newState() *State {
	if a.chunk == len(a.stateChunks) {
		a.stateChunks = append(a.stateChunks, make([]State, stateChunkSize))
	}
	s := &a.stateChunks[a.chunk][a.used]
	if a.used++; a.used == stateChunkSize {
		a.chunk++
		a.used = 0
	}
	return s
}

// ints carves a full-capacity slice of n ints from the arena slabs. The
// caller must overwrite every element.
func (a *Arena) ints(n int) []int {
	if n > intSlabSize {
		return make([]int, n)
	}
	if a.slab < len(a.slabs) && a.off+n > intSlabSize {
		a.slab++
		a.off = 0
	}
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]int, intSlabSize))
		a.off = 0
	}
	s := a.slabs[a.slab][a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// StartArena is Start drawn from the arena: the start vertex for w, with
// acc, an empty accumulator of the goal, as its accumulator. Accumulators
// are immutable (Add returns a new one), so one empty accumulator may start
// every walk of a goal; Start makes a fresh one per call.
func (p *Problem) StartArena(ar *Arena, w *workload.Workload, acc sla.Accumulator) *State {
	unassigned := ar.ints(len(w.Templates))
	clear(unassigned)
	for _, q := range w.Queries {
		unassigned[q.TemplateID]++
	}
	st := ar.newState()
	st.Unassigned = unassigned
	st.OpenType = NoVM
	st.OpenQueue = nil
	st.Wait = 0
	st.Acc = acc
	return st
}

// ApplyArena is Apply for branching searches: the successor State and its
// Unassigned/OpenQueue backing arrays are drawn from the arena instead of
// the heap, so an expansion-heavy search allocates nothing per edge once
// the arena has grown. Successors are identical to Apply's in every field,
// with one deliberate exception: for penalty-history-free goals
// (sla.PenaltyHistoryFree) the accumulator is shared unchanged from the
// parent rather than advanced. Every quantity a search derives from a
// state — edge weights (PeekAdd − Penalty telescopes for history-free
// goals), signatures (history-free accumulators append no bytes), goal
// tests, action sets — is unaffected; only Acc.Penalty() itself goes stale,
// so arena states must not escape to consumers that read absolute
// penalties. Callers exporting a path replay it with Apply.
func (p *Problem) ApplyArena(ar *Arena, s *State, a Action) *State {
	lat := p.edge(s, a)
	child := ar.newState()
	if a.Kind == Startup {
		child.Unassigned = s.Unassigned
		child.OpenType = a.VMType
		child.OpenQueue = nil
		child.Wait = 0
		child.Acc = s.Acc
		return child
	}
	unassigned := ar.ints(len(s.Unassigned))
	copy(unassigned, s.Unassigned)
	unassigned[a.Template]--
	queue := ar.ints(len(s.OpenQueue) + 1)
	copy(queue, s.OpenQueue)
	queue[len(s.OpenQueue)] = a.Template
	completion := s.Wait + lat
	acc := s.Acc
	if !p.histFree {
		acc = s.Acc.Add(a.Template, completion)
	}
	child.Unassigned = unassigned
	child.OpenType = s.OpenType
	child.OpenQueue = queue
	child.Wait = completion
	child.Acc = acc
	return child
}
