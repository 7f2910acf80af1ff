// Package graph defines WiSeDB's scheduling graph (§4.3): a weighted DAG
// whose vertices are partial schedules plus remaining queries, and whose
// edges are workload-management actions — renting a VM (start-up edge) or
// placing a query on the most recently rented VM (placement edge). The
// weight of a path from the start vertex to a goal vertex equals the total
// cost (Eq. 1) of the goal vertex's complete schedule, so minimum-cost
// scheduling reduces to shortest path.
//
// Both of the paper's reductions are applied:
//
//  1. a start-up edge exists only when the open (most recent) VM is
//     non-empty, so no path provisions a VM it never uses; and
//  2. placement edges target only the open VM, so each combination of VM
//     types and query orderings is reachable by exactly one path
//     (Lemma 4.1 shows no optimal goal vertex is lost).
//
// Additionally, queries of the same template are interchangeable (§4.3), so
// vertices track per-template unassigned counts rather than query
// identities, and at most one placement edge exists per template.
package graph

import (
	"encoding/binary"
	"time"

	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// ActionKind discriminates the two edge types of the scheduling graph.
type ActionKind int

const (
	// Startup rents a new VM (start-up edge).
	Startup ActionKind = iota
	// Place assigns one query of a template to the open VM
	// (placement edge).
	Place
)

// Action is a workload-management decision: one edge of the scheduling
// graph, and also the label space of the decision-tree model (§4.4: "the
// domain of possible decisions is equal to the sum of the number of query
// templates and the number of VM types").
type Action struct {
	Kind ActionKind
	// VMType is the type to rent when Kind == Startup.
	VMType int
	// Template is the template to place when Kind == Place.
	Template int
}

// Label returns a dense integer encoding of the action for use as a
// classifier label: placements map to [0, |T|) and start-ups to
// [|T|, |T|+|V|).
func (a Action) Label(numTemplates int) int {
	if a.Kind == Place {
		return a.Template
	}
	return numTemplates + a.VMType
}

// ActionFromLabel inverts Label.
func ActionFromLabel(label, numTemplates int) Action {
	if label < numTemplates {
		return Action{Kind: Place, Template: label}
	}
	return Action{Kind: Startup, VMType: label - numTemplates}
}

// NoVM marks a state whose schedule has no VM yet (the start vertex).
const NoVM = -1

// State is a vertex of the scheduling graph. Only the information that can
// influence future costs (plus the open VM's queue, needed for feature
// extraction) is retained: frozen VMs are fully accounted for in the path
// cost and are reconstructed from the action path when needed.
type State struct {
	// Unassigned holds the remaining query count per template (v_u).
	Unassigned []int
	// OpenType is the VM type of the most recently rented VM, or NoVM.
	OpenType int
	// OpenQueue is the template sequence queued on the open VM.
	OpenQueue []int
	// Wait is the total execution time queued on the open VM: the time a
	// newly placed query would wait before starting (§4.4, feature 1).
	Wait time.Duration
	// Acc tracks the penalty of the schedule so far.
	Acc sla.Accumulator
}

// Problem bundles everything that defines a scheduling-graph instance: the
// environment (templates, VM types, predictor) and the performance goal.
type Problem struct {
	Env  *schedule.Env
	Goal sla.Goal
	// Ignored. It switched off a third graph reduction (VMs ordered by
	// first-query template) that was removed because it never beat the
	// plain graph; the field survives only because the frozen bench/
	// module still assigns it, and goes once those assignments do
	// (ROADMAP item 6(e)).
	NoSymmetryBreaking bool

	// Tables NewProblem freezes: histFree caches
	// sla.PenaltyHistoryFree(Goal) for the ApplyArena fast path, and lat is
	// Env's template×VM-type latency matrix, row-major, negative where the
	// type cannot run the template — every placement edge reads it, and
	// Env.Latency's own range checks and lazy freeze are too dear for that.
	histFree bool
	lat      []time.Duration
}

// NewProblem constructs a Problem; a Problem must be built by it.
func NewProblem(env *schedule.Env, goal sla.Goal) *Problem {
	p := &Problem{Env: env, Goal: goal, histFree: sla.PenaltyHistoryFree(goal)}
	p.lat = make([]time.Duration, 0, len(env.Templates)*len(env.VMTypes))
	for t := range env.Templates {
		for vt := range env.VMTypes {
			lat, ok := env.Latency(t, vt)
			if !ok {
				lat = -1
			}
			p.lat = append(p.lat, lat)
		}
	}
	return p
}

// Start returns the start vertex for a workload: all queries unassigned, no
// VM rented.
func (p *Problem) Start(w *workload.Workload) *State {
	return &State{
		Unassigned: w.Counts(),
		OpenType:   NoVM,
		Acc:        sla.NewAccumulator(p.Goal),
	}
}

// IsGoal reports whether the state is a goal vertex (no unassigned queries).
func (s *State) IsGoal() bool {
	for _, c := range s.Unassigned {
		if c != 0 {
			return false
		}
	}
	return true
}

// RemainingQueries returns the number of unassigned queries.
func (s *State) RemainingQueries() int {
	n := 0
	for _, c := range s.Unassigned {
		n += c
	}
	return n
}

// CanStartup reports whether a start-up edge may leave this state: the open
// VM must be non-empty (reduction 1) — or absent — and work must remain.
func (s *State) CanStartup() bool {
	if s.IsGoal() {
		return false
	}
	return s.OpenType == NoVM || len(s.OpenQueue) > 0
}

// CanPlace reports whether a placement edge for the template may leave this
// state: an instance must be unassigned and the open VM must support the
// template.
func (p *Problem) CanPlace(s *State, template int) bool {
	_, ok := p.placeLatency(s, template)
	return ok
}

// placeLatency is CanPlace that also returns what every caller of a valid
// placement edge wants next: the template's latency on the open VM.
func (p *Problem) placeLatency(s *State, template int) (time.Duration, bool) {
	if template < 0 || template >= len(s.Unassigned) || s.Unassigned[template] == 0 || s.OpenType == NoVM {
		return 0, false
	}
	nv := len(p.Env.VMTypes)
	if template >= len(p.Env.Templates) || s.OpenType >= nv {
		return 0, false
	}
	lat := p.lat[template*nv+s.OpenType]
	return lat, lat >= 0
}

// StartupCost returns the weight of the start-up edge for VM type vt.
func (p *Problem) StartupCost(vt int) float64 {
	return p.Env.VMTypes[vt].StartupCost
}

// PlacementCost returns the weight of the placement edge for the template
// out of state s (Eq. 2): processing cost f_r × l plus the penalty delta.
// ok is false if the edge does not exist.
func (p *Problem) PlacementCost(s *State, template int) (cost float64, ok bool) {
	lat, ok := p.placeLatency(s, template)
	if !ok {
		return 0, false
	}
	vt := p.Env.VMTypes[s.OpenType]
	completion := s.Wait + lat
	delta := s.Acc.PeekAdd(template, completion) - s.Acc.Penalty()
	return vt.RunningCost(lat) + delta, true
}

// edge validates action a out of s — panicking if the graph has no such
// edge — and returns, for a placement, the template's latency on the open
// VM. Apply, ApplyInPlace and ApplyArena all validate through it.
func (p *Problem) edge(s *State, a Action) time.Duration {
	switch a.Kind {
	case Startup:
		if !s.CanStartup() {
			panic("graph: invalid start-up edge")
		}
		if a.VMType < 0 || a.VMType >= len(p.Env.VMTypes) {
			panic("graph: unknown VM type")
		}
		return 0
	case Place:
		lat, ok := p.placeLatency(s, a.Template)
		if !ok {
			panic("graph: invalid placement edge")
		}
		return lat
	}
	panic("graph: unknown action kind")
}

// Apply returns the successor state reached by taking the action from s.
// It panics if the action is invalid; use CanStartup/CanPlace first.
func (p *Problem) Apply(s *State, a Action) *State {
	lat := p.edge(s, a)
	if a.Kind == Startup {
		return &State{Unassigned: s.Unassigned, OpenType: a.VMType, Acc: s.Acc}
	}
	unassigned := make([]int, len(s.Unassigned))
	copy(unassigned, s.Unassigned)
	unassigned[a.Template]--
	queue := make([]int, len(s.OpenQueue)+1)
	copy(queue, s.OpenQueue)
	queue[len(s.OpenQueue)] = a.Template
	completion := s.Wait + lat
	return &State{
		Unassigned: unassigned,
		OpenType:   s.OpenType,
		OpenQueue:  queue,
		Wait:       completion,
		Acc:        s.Acc.Add(a.Template, completion),
	}
}

// ApplyInPlace is Apply for states the caller exclusively owns: it mutates
// s to the successor instead of allocating one, reusing the Unassigned and
// OpenQueue backing arrays across the whole walk. The serving path threads
// one pooled state through a schedule's entire action sequence this way —
// O(1) amortized per action, zero allocations once the slices have grown —
// whereas the search, which branches states, must use Apply. The successor
// is identical to Apply's in every field; note that s.Acc is advanced via
// Accumulator.Add, which allocates per placement unless s.Acc is a mutable
// accumulator such as *sla.Tracker.
func (p *Problem) ApplyInPlace(s *State, a Action) {
	lat := p.edge(s, a)
	if a.Kind == Startup {
		s.OpenType = a.VMType
		s.OpenQueue = s.OpenQueue[:0]
		s.Wait = 0
		return
	}
	s.Unassigned[a.Template]--
	s.OpenQueue = append(s.OpenQueue, a.Template)
	s.Wait += lat
	s.Acc = s.Acc.Add(a.Template, s.Wait)
}

// Actions returns the out-edges of s in a deterministic order: placement
// edges by template ID, then start-up edges by VM type. A start-up edge for
// type vt is offered only if vt can run at least one unassigned template
// (renting a VM nothing can use is never optimal and never reaches a goal
// with the reductions in force).
func (p *Problem) Actions(s *State) []Action {
	return p.AppendActions(nil, s)
}

// AppendActions appends the out-edges of s to buf in the same deterministic
// order as Actions and returns the extended slice. It is the
// allocation-free form used on the search hot path: the caller reuses one
// scratch buffer per expansion.
func (p *Problem) AppendActions(buf []Action, s *State) []Action {
	for t := range s.Unassigned {
		if p.CanPlace(s, t) {
			buf = append(buf, Action{Kind: Place, Template: t})
		}
	}
	if s.CanStartup() {
		for _, vt := range p.Env.VMTypes {
			usable := false
			for t, c := range s.Unassigned {
				if c == 0 {
					continue
				}
				if _, ok := p.Env.Latency(t, vt.ID); ok {
					usable = true
					break
				}
			}
			if usable {
				buf = append(buf, Action{Kind: Startup, VMType: vt.ID})
			}
		}
	}
	return buf
}

// Signature returns a canonical byte-string key identifying all state that
// can influence future costs: unassigned counts, open VM type, queued wait
// time, and the goal-specific penalty summary. Two states with equal
// signatures have identical reachable futures, so the search keeps only the
// cheapest. The open queue's composition is deliberately excluded: future
// placement costs depend on it only through Wait and Acc.
func (p *Problem) Signature(s *State) string {
	return string(p.AppendSignature(make([]byte, 0, 8*len(s.Unassigned)+16), s))
}

// AppendSignature appends the state's Signature bytes to buf and returns the
// extended slice. It is the allocation-free form used on the search hot
// path: callers reuse one scratch buffer per search and intern the bytes
// into dense ids instead of materializing a string per expanded edge.
func (p *Problem) AppendSignature(buf []byte, s *State) []byte {
	for _, c := range s.Unassigned {
		buf = binary.AppendVarint(buf, int64(c))
	}
	buf = binary.AppendVarint(buf, int64(s.OpenType))
	buf = binary.AppendVarint(buf, int64(s.Wait/time.Millisecond))
	return s.Acc.AppendSignature(buf)
}

// BuildSchedule replays an action path from the start vertex into a
// concrete Schedule whose tags number the placements in path order.
func BuildSchedule(actions []Action) *schedule.Schedule {
	s, _ := BuildScheduleInto(nil, nil, actions)
	return s
}

// BuildScheduleInto is BuildSchedule into caller-owned storage, sized
// exactly: one VM list and one backing array shared by every queue
// (capacity-capped sub-slices, so appending to one queue can never clobber a
// neighbor). A non-nil dst and a large enough backing are recycled instead
// of allocated — the online stream core consumes each schedule before asking
// for the next, so its arrival path reuses one skeleton for the whole stream
// — and the returned backing must be passed back in on the next call.
// Nil dst and backing allocate fresh storage.
func BuildScheduleInto(dst *schedule.Schedule, backing []schedule.Placed, actions []Action) (*schedule.Schedule, []schedule.Placed) {
	numVMs := 0
	for _, a := range actions {
		if a.Kind == Startup {
			numVMs++
		}
	}
	s := dst
	if s == nil {
		s = &schedule.Schedule{}
	}
	if cap(s.VMs) < numVMs {
		s.VMs = make([]schedule.VM, 0, numVMs)
	} else {
		s.VMs = s.VMs[:0]
	}
	if numPlaced := len(actions) - numVMs; cap(backing) < numPlaced {
		backing = make([]schedule.Placed, 0, numPlaced)
	} else {
		backing = backing[:0]
	}
	open := 0 // where the open VM's queue starts in backing
	for _, a := range actions {
		switch a.Kind {
		case Startup:
			s.VMs = append(s.VMs, schedule.VM{TypeID: a.VMType})
			open = len(backing)
		case Place:
			if len(s.VMs) == 0 {
				panic("graph: placement before any start-up action")
			}
			backing = append(backing, schedule.Placed{TemplateID: a.Template, Tag: len(backing)})
			s.VMs[len(s.VMs)-1].Queue = backing[open:len(backing):len(backing)]
		}
	}
	return s, backing
}
