// Package schedule defines workload schedules and the paper's cost model.
// A schedule S is a list of VMs, each holding an ordered queue of queries
// (§3). Its total monetary cost under a performance goal R is
//
//	cost(R,S) = Σ_vm [ f_s + Σ_q f_r × l(q) ] + p(R,S)      (Eq. 1)
//
// i.e. per-VM start-up fees, per-query processing fees, and SLA penalties.
package schedule

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// Env bundles the static context a schedule is evaluated against: the
// template set, the available VM types, and the latency predictor.
//
// An Env is immutable once in use and safe for concurrent use: the first
// latency query freezes the predictor's template×VM-type table into a
// flat matrix, and every later lookup — including the per-edge lookups of
// many concurrent A* searches — is served from that matrix without touching
// the Predictor again. Do not modify Templates, VMTypes, or Pred after the
// Env has been handed to a searcher, model, or scheduler.
type Env struct {
	Templates []workload.Template
	VMTypes   []cloud.VMType
	Pred      cloud.Predictor

	// The once-frozen prediction tables. lat is the template×VM-type
	// latency matrix, flattened row-major; a negative entry means the
	// type cannot run the template. cheapest and fastest hold the Eq. 3
	// per-template minima over VM types (processing cost and latency);
	// cheapest is +Inf and fastest 0 for templates no type can run.
	once     sync.Once
	lat      []time.Duration
	cheapest []float64
	fastest  []time.Duration
}

// NewEnv returns an Env using the exact latency table predictor.
func NewEnv(templates []workload.Template, vmTypes []cloud.VMType) *Env {
	e := &Env{Templates: templates, VMTypes: vmTypes, Pred: cloud.TablePredictor{}}
	e.freeze()
	return e
}

// freeze materializes the latency matrix and the per-template minima. It
// runs at most once; Envs built by NewEnv freeze eagerly, Envs assembled as
// struct literals freeze on first lookup. Predicted latencies are clamped
// to a minimum of 1ns: the matrix encodes "cannot run" as a negative entry
// and "no runnable type" as a zero fastest latency, so a predictor
// reporting a non-positive latency with ok=true would otherwise corrupt
// both sentinels (no real predictor estimates a query at zero time).
func (e *Env) freeze() {
	e.once.Do(func() {
		nT, nV := len(e.Templates), len(e.VMTypes)
		e.lat = make([]time.Duration, nT*nV)
		e.cheapest = make([]float64, nT)
		e.fastest = make([]time.Duration, nT)
		for t := range e.Templates {
			e.cheapest[t] = math.Inf(1)
			for v := range e.VMTypes {
				lat, ok := e.Pred.Latency(e.Templates[t], e.VMTypes[v])
				if !ok {
					e.lat[t*nV+v] = -1
					continue
				}
				if lat < time.Nanosecond {
					lat = time.Nanosecond
				}
				e.lat[t*nV+v] = lat
				if c := e.VMTypes[v].RunningCost(lat); c < e.cheapest[t] {
					e.cheapest[t] = c
				}
				if e.fastest[t] == 0 || lat < e.fastest[t] {
					e.fastest[t] = lat
				}
			}
		}
	})
}

// Latency returns the predicted latency of template templateID on VM type
// typeID; ok is false if the type cannot run the template.
func (e *Env) Latency(templateID, typeID int) (time.Duration, bool) {
	if templateID < 0 || templateID >= len(e.Templates) || typeID < 0 || typeID >= len(e.VMTypes) {
		return 0, false
	}
	e.freeze()
	lat := e.lat[templateID*len(e.VMTypes)+typeID]
	if lat < 0 {
		return 0, false
	}
	return lat, true
}

// UnrunnableLatency is the latency charged to a query placed on a VM type
// that cannot run its template: large enough that any goal's penalty and
// any first-fit ordering surface the mistake rather than hide it.
const UnrunnableLatency = 1000 * time.Hour

// CheapestLatencyCost returns the minimum over VM types of
// f_r × l(template, type) — the cheapest possible processing cost for one
// instance of the template. It is the per-query term of the A* heuristic
// (Eq. 3). ok is false if no type can run the template.
func (e *Env) CheapestLatencyCost(templateID int) (float64, bool) {
	if templateID < 0 || templateID >= len(e.Templates) {
		return 0, false
	}
	e.freeze()
	c := e.cheapest[templateID]
	if math.IsInf(c, 1) {
		return 0, false
	}
	return c, true
}

// FastestLatency returns the minimum latency of the template over all VM
// types that can run it; ok is false if no type can.
func (e *Env) FastestLatency(templateID int) (time.Duration, bool) {
	if templateID < 0 || templateID >= len(e.Templates) {
		return 0, false
	}
	e.freeze()
	if e.fastest[templateID] == 0 {
		return 0, false
	}
	return e.fastest[templateID], true
}

// Placed is a query placed in a VM queue.
type Placed struct {
	// TemplateID is the query's template.
	TemplateID int
	// Tag is the query's per-workload identifier.
	Tag int
}

// VM is a rented virtual machine with its ordered processing queue (§3:
// vm_i = [q_1, q_2, ...], processed in that order).
type VM struct {
	// TypeID indexes Env.VMTypes.
	TypeID int
	// Queue holds the queries in execution order.
	Queue []Placed
}

// Schedule is a complete or partial assignment of a workload to VMs.
type Schedule struct {
	VMs []VM
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{VMs: make([]VM, len(s.VMs))}
	for i, vm := range s.VMs {
		out.VMs[i] = VM{TypeID: vm.TypeID, Queue: append([]Placed(nil), vm.Queue...)}
	}
	return out
}

// NumQueries returns the number of queries placed in the schedule.
func (s *Schedule) NumQueries() int {
	n := 0
	for _, vm := range s.VMs {
		n += len(vm.Queue)
	}
	return n
}

// String renders the schedule in the paper's notation, e.g.
// {vm0=[T1,T0], vm0=[T2]}.
func (s *Schedule) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, vm := range s.VMs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "vm%d=[", vm.TypeID)
		for j, q := range vm.Queue {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "T%d", q.TemplateID)
		}
		b.WriteString("]")
	}
	b.WriteString("}")
	return b.String()
}

// Perf computes the per-query outcomes of the schedule under env: each
// query's latency is its queue wait plus its own execution time, since
// queries run in isolation and in order (§3, Fig. 3). Queries on VM types
// that cannot run them are reported with a very large latency so that
// penalties surface the mistake rather than hiding it.
func (s *Schedule) Perf(env *Env) []sla.QueryPerf {
	perf := make([]sla.QueryPerf, 0, s.NumQueries())
	for _, vm := range s.VMs {
		elapsed := time.Duration(0)
		for _, q := range vm.Queue {
			lat, ok := env.Latency(q.TemplateID, vm.TypeID)
			if !ok {
				lat = UnrunnableLatency
			}
			elapsed += lat
			perf = append(perf, sla.QueryPerf{TemplateID: q.TemplateID, Latency: elapsed})
		}
	}
	return perf
}

// ProvisioningCost returns the Eq. 1 cost excluding penalties: start-up fees
// plus processing fees, in cents.
func (s *Schedule) ProvisioningCost(env *Env) float64 {
	total := 0.0
	for _, vm := range s.VMs {
		vt := env.VMTypes[vm.TypeID]
		total += vt.StartupCost
		for _, q := range vm.Queue {
			lat, ok := env.Latency(q.TemplateID, vm.TypeID)
			if !ok {
				lat = UnrunnableLatency
			}
			total += vt.RunningCost(lat)
		}
	}
	return total
}

// Cost returns the total monetary cost cost(R,S) in cents (Eq. 1).
func (s *Schedule) Cost(env *Env, goal sla.Goal) float64 {
	return s.ProvisioningCost(env) + goal.Penalty(s.Perf(env))
}

// Penalty returns p(R,S) in cents for the schedule.
func (s *Schedule) Penalty(env *Env, goal sla.Goal) float64 {
	return goal.Penalty(s.Perf(env))
}

// Validate checks structural invariants: known VM types, known templates,
// no empty VMs (an optimal schedule never pays a start-up fee for an unused
// VM), and that the schedule places exactly the queries of w (by tag) when
// w is non-nil.
func (s *Schedule) Validate(env *Env, w *workload.Workload) error {
	seen := map[int]int{}
	for i, vm := range s.VMs {
		if vm.TypeID < 0 || vm.TypeID >= len(env.VMTypes) {
			return fmt.Errorf("schedule: vm %d has unknown type %d", i, vm.TypeID)
		}
		if len(vm.Queue) == 0 {
			return fmt.Errorf("schedule: vm %d is empty", i)
		}
		for _, q := range vm.Queue {
			if q.TemplateID < 0 || q.TemplateID >= len(env.Templates) {
				return fmt.Errorf("schedule: query tag %d has unknown template %d", q.Tag, q.TemplateID)
			}
			seen[q.Tag]++
		}
	}
	if w != nil {
		if s.NumQueries() != len(w.Queries) {
			return fmt.Errorf("schedule: has %d queries, workload has %d", s.NumQueries(), len(w.Queries))
		}
		for _, q := range w.Queries {
			if seen[q.Tag] != 1 {
				return fmt.Errorf("schedule: query tag %d placed %d times", q.Tag, seen[q.Tag])
			}
		}
	}
	return nil
}
