package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/workload"
)

// place hands the j-th abstract VM of a type the j-th live VM of that type
// in a stable sort by (free time, rental order), renting once they run out,
// and a fallback reroute goes to the fallback type's next candidate without
// consuming it. Checked against that reference on randomized fleets: few
// rental instants, so free times tie; often more than 12 VMs of one type,
// where an unstable sort may break ties either way; VMs killed by injected
// faults; schedules with more abstract VMs of a type than selectSteps and
// than there are candidates; and queries of a template the schedule's VM
// type cannot run, rerouted to the fallback type.
func TestPlaceMatchesStableSortByFreeThenRental(t *testing.T) {
	templates := []workload.Template{
		{ID: 0, Name: "small", BaseLatency: 2 * time.Minute},
		{ID: 1, Name: "big", BaseLatency: 3 * time.Minute, HighRAM: true},
	}
	types := cloud.DefaultVMTypes(2)
	types[1].SupportsHighRAM = false // type 1 cannot run template 1: reroutes to type 0
	env := schedule.NewEnv(templates, types)
	cfg := DefaultTrainConfig()
	cfg.NumSamples = 40
	cfg.SampleSize = 5
	cfg.Seed = 11
	base, err := MustNewAdvisor(env, cfg).Train(sla.NewMaxLatency(15*time.Minute, templates, sla.DefaultPenaltyRate))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOnlineOptions()
	opts.Degrade = true
	o := NewOnlineScheduler(base, opts)
	const now = 20 * time.Minute
	rng := rand.New(rand.NewSource(1))
	var over12, reroutes, deep int
	for trial := range 300 {
		s := o.NewStream(&SimClock{})
		s.InjectFaults(cloud.NewFaultPlan(int64(trial), cloud.FaultSpec{
			VMFailureRate: 0.2, VMMinLifetime: time.Minute, VMMaxLifetime: 25 * time.Minute,
		}))
		busyTag := 1 << 20 // work queued before the event; its tags stay out of the schedule's range
		for range rng.Intn(40) {
			vm := s.sim.Rent(types[rng.Intn(2)], time.Duration(rng.Intn(3))*5*time.Minute)
			if rng.Intn(3) == 0 {
				vm.Enqueue(busyTag, 0, vm.RentedAt, time.Duration(1+rng.Intn(3))*10*time.Minute)
				busyTag++
			}
		}
		for _, vm := range s.sim.VMs() {
			vm.CollectFailed(now, nil)
		}
		// The reference: each type's live VMs, stably sorted by free time.
		var want [2][]*cloud.SimVM
		for _, vm := range s.sim.VMs() {
			if !vm.Failed() {
				want[vm.Type.ID] = append(want[vm.Type.ID], vm)
			}
		}
		for ti := range want {
			byFree := func(a, b *cloud.SimVM) int { return cmp.Compare(a.NextFree(now), b.NextFree(now)) }
			if len(want[ti]) <= 12 {
				// Below 13 elements slices.SortFunc, which place used before
				// it selected, is an insertion sort and so stable as well.
				unstable := slices.Clone(want[ti])
				slices.SortFunc(unstable, byFree)
				slices.SortStableFunc(want[ti], byFree)
				if !slices.Equal(unstable, want[ti]) {
					t.Fatalf("trial %d: sorting %d candidates is not stable", trial, len(want[ti]))
				}
			} else {
				slices.SortStableFunc(want[ti], byFree)
				over12++
			}
		}

		// A schedule of one-query abstract VMs in random type order; a type-1
		// VM sometimes holds a template-1 query, which reroutes to type 0.
		sched := &schedule.Schedule{}
		tag := 0
		for ti := range want {
			for range rng.Intn(len(want[ti]) + 3) {
				avm := schedule.VM{TypeID: ti, Queue: []schedule.Placed{{TemplateID: 0, Tag: tag}}}
				if ti == 1 && rng.Intn(4) == 0 {
					avm.Queue[0].TemplateID = 1
				}
				sched.VMs = append(sched.VMs, avm)
				tag++
			}
		}
		rng.Shuffle(len(sched.VMs), func(i, j int) { sched.VMs[i], sched.VMs[j] = sched.VMs[j], sched.VMs[i] })
		for _, avm := range sched.VMs {
			q := avm.Queue[0]
			s.ensureTag(q.Tag)
			s.tags[q.Tag] = tagState{arrival: now, template: int32(q.TemplateID)}
		}

		rented := len(s.sim.VMs())
		if err := s.place(now, sched); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fleet := len(s.sim.VMs())
		// Replay the reference over the same schedule; a VM rented by place
		// is the next one in the simulator's rental order.
		fresh := func() *cloud.SimVM {
			vm := s.sim.VMs()[rented]
			rented++
			return vm
		}
		placedOn := make([]*cloud.SimVM, tag)
		var next [2]int
		for _, avm := range sched.VMs {
			ti := avm.TypeID
			var target *cloud.SimVM
			if next[ti] < len(want[ti]) {
				target = want[ti][next[ti]]
				next[ti]++
			} else {
				target = fresh()
			}
			q := avm.Queue[0]
			if q.TemplateID == 1 && ti == 1 {
				// The reroute peeks at type 0's next candidate; a VM it
				// has to rent joins type 0's candidates.
				if next[0] == len(want[0]) {
					want[0] = append(want[0], fresh())
				}
				target = want[0][next[0]]
				reroutes++
			}
			placedOn[q.Tag] = target
			if next[ti] > selectSteps {
				deep++
			}
		}
		if rented != fleet {
			t.Fatalf("trial %d: place left a fleet of %d VMs, the reference %d", trial, fleet, rented)
		}
		for _, vm := range s.sim.VMs() {
			for _, qt := range vm.RevokeUnstartedInto(now, nil) {
				if qt >= tag {
					continue // work queued before the event
				}
				if placedOn[qt] != vm {
					t.Fatalf("trial %d: query %d landed on a VM the reference did not choose", trial, qt)
				}
				placedOn[qt] = nil
			}
		}
		for qt, vm := range placedOn {
			if vm != nil {
				t.Fatalf("trial %d: query %d was not placed", trial, qt)
			}
		}
		s.Close()
	}
	if over12 == 0 || reroutes == 0 || deep == 0 {
		t.Fatalf("the fleets missed a case: %d types over 12 candidates, %d reroutes, %d placements past selectSteps", over12, reroutes, deep)
	}
}
