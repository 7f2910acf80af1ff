// Package heuristics implements the metric-specific baselines WiSeDB is
// compared against (§3, §7.2): First-Fit Decreasing (FFD), First-Fit
// Increasing (FFI), and Pack9. Each sorts the workload by latency and
// places queries on the first VM where they "fit" — incur no additional
// penalty — renting a new VM when none fits.
package heuristics

import (
	"cmp"
	"slices"
	"time"

	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

const eps = 1e-9

// Order selects the query ordering a first-fit pass uses.
type Order int

const (
	// Decreasing sorts queries by descending latency (FFD): the classic
	// bin-packing heuristic, suited to the Max goal.
	Decreasing Order = iota
	// Increasing sorts queries by ascending latency (FFI): suited to
	// PerQuery and Average goals [28].
	Increasing
	// Pack9Order emits the 9 shortest remaining queries then the single
	// largest, repeatedly: it pushes the most expensive queries into a
	// percentile goal's violation margin (§7.2).
	Pack9Order
)

// OrderFor returns the first-fit ordering best suited to a goal, following
// §7.2's pairing: FFD for Max (bin packing against one deadline), Pack9 for
// Percentile (push the expensive tail into the violation margin), FFI for
// everything else (PerQuery, Average). The serving engine's degraded path
// uses it to pick its fallback ordering from the epoch's goal.
func OrderFor(goal sla.Goal) Order {
	switch goal.(type) {
	case sla.MaxLatency:
		return Decreasing
	case sla.Percentile:
		return Pack9Order
	default:
		return Increasing
	}
}

// FFD schedules the workload with first-fit decreasing on VM type vmType.
func FFD(w *workload.Workload, env *schedule.Env, goal sla.Goal, vmType int) *schedule.Schedule {
	return FirstFit(w, env, goal, vmType, Decreasing)
}

// FFI schedules the workload with first-fit increasing on VM type vmType.
func FFI(w *workload.Workload, env *schedule.Env, goal sla.Goal, vmType int) *schedule.Schedule {
	return FirstFit(w, env, goal, vmType, Increasing)
}

// Pack9 schedules the workload with the Pack9 ordering on VM type vmType.
func Pack9(w *workload.Workload, env *schedule.Env, goal sla.Goal, vmType int) *schedule.Schedule {
	return FirstFit(w, env, goal, vmType, Pack9Order)
}

// FirstFit runs a first-fit pass over the workload in the given order:
// each query goes to the first VM where appending it adds no penalty, or to
// a newly rented VM when none fits. Queries that cannot avoid a penalty
// anywhere are still placed (on a fresh VM), mirroring WiSeDB's policy of
// scheduling every query as cheaply as possible rather than rejecting it.
// The workload is not modified and the returned schedule shares no storage
// with it or with any other call.
func FirstFit(w *workload.Workload, env *schedule.Env, goal sla.Goal, vmType int, order Order) *schedule.Schedule {
	sc := Scratch{Tracker: sla.NewTracker(goal)}
	sched, _ := sc.FirstFit(w.Queries, env, vmType, order, nil, nil)
	return sched
}

// Scratch holds the working storage of a first-fit pass, so a caller that
// runs pass after pass — the serving engine's degraded path runs one per
// arrival event — allocates nothing once the buffers have grown to its
// batch size. The zero value is ready once Tracker is set. A Scratch serves
// one pass at a time.
type Scratch struct {
	// Tracker carries the committed penalty of the schedule under
	// construction. The caller sets it to a tracker of the pass's goal and
	// replaces it when the goal changes; FirstFit resets it on entry.
	Tracker *sla.Tracker

	tpls   []tplLatency    // per template, plus one last slot standing for unknown template IDs
	byLat  []int           // template slots sorted by latency, to rank them
	start  []int           // per latency class, the counting sort's next write position
	asc    []int           // indices into the pass's queries, stable ascending by latency
	placed []placement     // in visiting order: each query and the VM it went to
	waits  []time.Duration // per VM, queued execution time
	fill   []int           // per VM, queue length
}

// tplLatency is a template's latency on the pass's VM type and the rank of
// that latency among the distinct latencies of all templates.
type tplLatency struct {
	lat   time.Duration
	class int
}

type placement struct {
	q  schedule.Placed
	vm int
}

// FirstFit is the package-level FirstFit on caller-owned storage: queries
// are the workload's, the goal is Tracker's, and the schedule is built into
// dst with every queue carved out of backing (capacity-capped, so appending
// to one queue cannot clobber a neighbour). Both are reused when large
// enough and allocated otherwise — nil/nil yields an independent schedule —
// and are returned for the next call. A schedule built into recycled
// storage is valid until that storage is passed in again.
func (sc *Scratch) FirstFit(queries []workload.Query, env *schedule.Env, vmType int, order Order, dst *schedule.Schedule, backing []schedule.Placed) (*schedule.Schedule, []schedule.Placed) {
	if order != Decreasing && order != Increasing && order != Pack9Order {
		panic("heuristics: unknown order")
	}
	sc.sortByLatency(queries, env, vmType)

	tr := sc.Tracker
	tr.Reset()
	cur := tr.Penalty()
	sc.placed = sc.placed[:0]
	sc.waits = sc.waits[:0]
	sc.fill = sc.fill[:0]
	// Visit the ascending order from its front (Increasing), its back
	// (Decreasing: the reverse of the stable order), or nine from the front
	// then one from the back (Pack9).
	for lo, hi, run := 0, len(queries)-1, 0; lo <= hi; {
		var q workload.Query
		if order == Increasing || (order == Pack9Order && run < 9) {
			q = queries[sc.asc[lo]]
			lo, run = lo+1, run+1
		} else {
			q = queries[sc.asc[hi]]
			hi, run = hi-1, 0
		}
		lat := sc.tpl(q.TemplateID).lat
		vm := -1
		for i, wait := range sc.waits {
			if tr.PeekAdd(q.TemplateID, wait+lat) <= cur+eps {
				vm = i
				break
			}
		}
		if vm < 0 {
			vm = len(sc.waits)
			sc.waits = append(sc.waits, 0)
			sc.fill = append(sc.fill, 0)
		}
		sc.waits[vm] += lat
		sc.fill[vm]++
		tr.Add(q.TemplateID, sc.waits[vm])
		cur = tr.Penalty()
		sc.placed = append(sc.placed, placement{q: schedule.Placed{TemplateID: q.TemplateID, Tag: q.Tag}, vm: vm})
	}

	if dst == nil {
		dst = &schedule.Schedule{}
	}
	dst.VMs = resize(dst.VMs, len(sc.fill))
	backing = resize(backing, len(queries))
	off := 0
	for i, n := range sc.fill {
		dst.VMs[i] = schedule.VM{TypeID: vmType, Queue: backing[off : off : off+n]}
		off += n
	}
	for _, p := range sc.placed {
		vm := &dst.VMs[p.vm]
		vm.Queue = append(vm.Queue, p.q)
	}
	return dst, backing
}

// sortByLatency fills sc.asc with the indices of queries in stable
// ascending order of latency on vmType (ties keep input order). Templates
// the type cannot run, and template IDs env does not know, take
// schedule.UnrunnableLatency. Latencies take at most one distinct value per
// template, so the order is a counting sort over those values' ranks.
func (sc *Scratch) sortByLatency(queries []workload.Query, env *schedule.Env, vmType int) {
	unknown := len(env.Templates)
	sc.tpls = resize(sc.tpls, unknown+1)
	sc.byLat = resize(sc.byLat, unknown+1)
	for t := range sc.tpls {
		lat, ok := env.Latency(t, vmType) // not ok for t == unknown
		if !ok {
			lat = schedule.UnrunnableLatency
		}
		sc.tpls[t].lat = lat
		sc.byLat[t] = t
	}
	slices.SortFunc(sc.byLat, func(a, b int) int { return cmp.Compare(sc.tpls[a].lat, sc.tpls[b].lat) })
	classes := 0
	for i, t := range sc.byLat {
		if i > 0 && sc.tpls[t].lat != sc.tpls[sc.byLat[i-1]].lat {
			classes++
		}
		sc.tpls[t].class = classes
	}
	classes++

	sc.start = resize(sc.start, classes)
	clear(sc.start)
	for _, q := range queries {
		sc.start[sc.tpl(q.TemplateID).class]++
	}
	at := 0
	for c, n := range sc.start {
		sc.start[c] = at
		at += n
	}
	sc.asc = resize(sc.asc, len(queries))
	for i, q := range queries {
		c := sc.tpl(q.TemplateID).class
		sc.asc[sc.start[c]] = i
		sc.start[c]++
	}
}

// tpl returns the table entry of a template ID, the last one for IDs
// outside the table.
func (sc *Scratch) tpl(id int) tplLatency {
	return sc.tpls[min(uint(id), uint(len(sc.tpls)-1))]
}

// resize returns s with length n, reusing its array when that is large
// enough; the elements are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
