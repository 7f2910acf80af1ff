package cloud

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"wisedb/internal/workload"
)

func TestDefaultVMTypes(t *testing.T) {
	types := DefaultVMTypes(2)
	medium, small := types[0], types[1]
	if medium.Name != "t2.medium" || small.Name != "t2.small" {
		t.Fatalf("unexpected names %s, %s", medium.Name, small.Name)
	}
	if medium.RatePerHour != 5.2 {
		t.Fatalf("t2.medium rate: want 5.2¢/hr ($0.052), got %g", medium.RatePerHour)
	}
	if medium.StartupCost != 0.08 {
		t.Fatalf("start-up cost: want 0.08¢ ($0.0008), got %g", medium.StartupCost)
	}
	if small.RatePerHour >= medium.RatePerHour {
		t.Fatal("t2.small must be cheaper")
	}
}

func TestRunningCost(t *testing.T) {
	vt := DefaultVMTypes(1)[0]
	if got := vt.RunningCost(time.Hour); math.Abs(got-5.2) > 1e-12 {
		t.Fatalf("1 hour: want 5.2¢, got %g", got)
	}
	if got := vt.RunningCost(30 * time.Minute); math.Abs(got-2.6) > 1e-12 {
		t.Fatalf("30 min: want 2.6¢, got %g", got)
	}
}

func TestLatencyHighRAM(t *testing.T) {
	types := DefaultVMTypes(2)
	low := workload.Template{ID: 0, BaseLatency: 2 * time.Minute, HighRAM: false}
	high := workload.Template{ID: 1, BaseLatency: 2 * time.Minute, HighRAM: true}
	if lat, ok := types[1].Latency(low); !ok || lat != 2*time.Minute {
		t.Fatalf("low-RAM on small: want full speed, got %s ok=%v", lat, ok)
	}
	want := time.Duration(types[1].HighRAMMultiplier * float64(2*time.Minute))
	if lat, ok := types[1].Latency(high); !ok || lat != want {
		t.Fatalf("high-RAM on small: want %s, got %s ok=%v", want, lat, ok)
	}
	if lat, ok := types[0].Latency(high); !ok || lat != 2*time.Minute {
		t.Fatalf("high-RAM on medium: want full speed, got %s ok=%v", lat, ok)
	}
	noHigh := types[0]
	noHigh.SupportsHighRAM = false
	if _, ok := noHigh.Latency(high); ok {
		t.Fatal("unsupported template must report ok=false")
	}
}

func TestNoisyPredictorStable(t *testing.T) {
	templates := workload.DefaultTemplates(5)
	types := DefaultVMTypes(1)
	p := NewNoisyPredictor(TablePredictor{}, 0.2, 42)
	a, _ := p.Latency(templates[2], types[0])
	b, _ := p.Latency(templates[2], types[0])
	if a != b {
		t.Fatal("noisy predictions must be stable per (template, type)")
	}
	if a == templates[2].BaseLatency {
		t.Fatal("noise should perturb the latency (sigma=0.2)")
	}
	zero := NewNoisyPredictor(TablePredictor{}, 0, 42)
	if lat, _ := zero.Latency(templates[2], types[0]); lat != templates[2].BaseLatency {
		t.Fatalf("sigma=0: want exact latency, got %s", lat)
	}
}

func TestNoisyPredictorNeverNegative(t *testing.T) {
	f := func(seed int64, sigmaRaw uint8) bool {
		sigma := float64(sigmaRaw) / 64 // up to 4x
		rng := rand.New(rand.NewSource(seed))
		lat := SampleNoisyLatency(4*time.Minute, sigma, rng)
		return lat > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClosestTemplate(t *testing.T) {
	templates := workload.DefaultTemplates(10) // 2m..6m
	ref := DefaultVMTypes(1)[0]
	if got := ClosestTemplate(2*time.Minute, templates, ref, TablePredictor{}); got != 0 {
		t.Fatalf("2m: want template 0, got %d", got)
	}
	if got := ClosestTemplate(6*time.Minute, templates, ref, TablePredictor{}); got != 9 {
		t.Fatalf("6m: want template 9, got %d", got)
	}
	if got := ClosestTemplate(4*time.Minute+2*time.Second, templates, ref, TablePredictor{}); got != 4 && got != 5 {
		t.Fatalf("4m: want a middle template, got %d", got)
	}
}

func TestSimSequentialExecution(t *testing.T) {
	sim := NewSim()
	vt := DefaultVMTypes(1)[0]
	vm := sim.Rent(vt, 0)
	vm.Enqueue(0, 0, 0, 2*time.Minute)
	vm.Enqueue(1, 1, 0, 3*time.Minute)
	runs := sim.Finish()
	if len(runs) != 2 {
		t.Fatalf("want 2 runs, got %d", len(runs))
	}
	ready := vt.StartupDelay
	if runs[0].Start != ready || runs[0].End != ready+2*time.Minute {
		t.Fatalf("run 0: got [%s,%s]", runs[0].Start, runs[0].End)
	}
	if runs[1].Start != runs[0].End || runs[1].End != runs[1].Start+3*time.Minute {
		t.Fatalf("run 1 must follow run 0: got [%s,%s]", runs[1].Start, runs[1].End)
	}
}

// Finish lists every run of every VM once, ordered by completion time and,
// among runs that end together on different VMs, by tag.
func TestSimFinishOrdersByEndThenTag(t *testing.T) {
	sim := NewSim()
	vt := DefaultVMTypes(1)[0]
	// Three VMs rented together whose queues end at the same instants, with
	// tags that interleave against the VM order.
	for v, tags := range [][]int{{7, 2}, {4, 9}, {0, 5}} {
		vm := sim.Rent(vt, 0)
		for i, tag := range tags {
			vm.Enqueue(tag, v, 0, time.Duration(i+1)*time.Minute)
		}
	}
	runs := sim.Finish()
	want := []int{0, 4, 7, 2, 5, 9}
	if len(runs) != len(want) {
		t.Fatalf("want %d runs, got %d", len(want), len(runs))
	}
	for i, r := range runs {
		if r.Tag != want[i] {
			t.Fatalf("run %d: tag %d, want order %v, got %v", i, r.Tag, want, runs)
		}
	}
}

func TestSimRevokeUnstarted(t *testing.T) {
	sim := NewSim()
	vt := DefaultVMTypes(1)[0]
	vm := sim.Rent(vt, 0)
	vm.Enqueue(0, 0, 0, 2*time.Minute)
	vm.Enqueue(1, 0, 0, 2*time.Minute)
	vm.Enqueue(2, 0, 0, 2*time.Minute)
	// At startupDelay+1m, query 0 is running; 1 and 2 have not started.
	tags := vm.RevokeUnstarted(vt.StartupDelay + time.Minute)
	if len(tags) != 2 || tags[0] != 1 || tags[1] != 2 {
		t.Fatalf("want tags [1 2], got %v", tags)
	}
	runs := sim.Finish()
	if len(runs) != 1 || runs[0].Tag != 0 {
		t.Fatalf("only query 0 should execute, got %v", runs)
	}
}

func TestSimRevokeAtExactStartBoundary(t *testing.T) {
	sim := NewSim()
	vt := DefaultVMTypes(1)[0]
	vm := sim.Rent(vt, 0)
	vm.Enqueue(0, 0, 0, time.Minute)
	// A query whose start time equals the observation time has not
	// started and is revocable.
	tags := vm.RevokeUnstarted(vt.StartupDelay)
	if len(tags) != 1 {
		t.Fatalf("query starting exactly now must be revocable, got %v", tags)
	}
}

func TestSimBusyUntilAndNextFree(t *testing.T) {
	sim := NewSim()
	vt := DefaultVMTypes(1)[0]
	vm := sim.Rent(vt, 0)
	if free := vm.NextFree(0); free != vt.StartupDelay {
		t.Fatalf("fresh VM free at startup delay, got %s", free)
	}
	vm.Enqueue(0, 0, 0, 2*time.Minute)
	vm.Enqueue(1, 0, 0, time.Minute)
	at := vt.StartupDelay + time.Minute // query 0 running
	if busy := vm.BusyUntil(at); busy != vt.StartupDelay+3*time.Minute {
		t.Fatalf("busy until all queued work done: got %s", busy)
	}
	if free := vm.NextFree(at); free != vt.StartupDelay+2*time.Minute {
		t.Fatalf("next free ignores revocable work: got %s", free)
	}
}

// A query enqueued onto an idle VM must start at its enqueue instant, not
// retroactively at the VM's last idle moment — backdated starts produced
// negative latencies (End < Arrival) in steady-state online streams where
// VMs idle between arrivals.
func TestSimEnqueueOnIdleVMStartsAtEnqueueTime(t *testing.T) {
	sim := NewSim()
	vt := DefaultVMTypes(1)[0]
	vm := sim.Rent(vt, 0)
	vm.Enqueue(0, 0, 0, time.Minute)
	// The VM idles from startupDelay+1m until the second query arrives at
	// t=30m.
	at := 30 * time.Minute
	vm.Enqueue(1, 0, at, time.Minute)
	runs := sim.Finish()
	if len(runs) != 2 {
		t.Fatalf("want 2 runs, got %d", len(runs))
	}
	if runs[1].Start != at || runs[1].End != at+time.Minute {
		t.Fatalf("idle-VM query must run at its enqueue time [%s,%s], got [%s,%s]",
			at, at+time.Minute, runs[1].Start, runs[1].End)
	}
	// BusyUntil accounts for the idle gap too.
	vm2 := sim.Rent(vt, 0)
	vm2.Enqueue(2, 0, time.Hour, time.Minute)
	if busy := vm2.BusyUntil(0); busy != time.Hour+time.Minute {
		t.Fatalf("BusyUntil across an idle gap: want %s, got %s", time.Hour+time.Minute, busy)
	}
}

func TestSimProvisioningCost(t *testing.T) {
	sim := NewSim()
	vt := DefaultVMTypes(1)[0]
	vm := sim.Rent(vt, 0)
	vm.Enqueue(0, 0, 0, time.Hour)
	sim.Finish()
	want := vt.StartupCost + vt.RatePerHour
	if got := sim.ProvisioningCost(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("want %g, got %g", want, got)
	}
}

func TestSimRunsOrderedByCompletion(t *testing.T) {
	sim := NewSim()
	vt := DefaultVMTypes(1)[0]
	a := sim.Rent(vt, 0)
	b := sim.Rent(vt, 0)
	a.Enqueue(0, 0, 0, 3*time.Minute)
	b.Enqueue(1, 0, 0, time.Minute)
	runs := sim.Finish()
	if runs[0].Tag != 1 || runs[1].Tag != 0 {
		t.Fatalf("runs must be ordered by completion: %v", runs)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	spec := FaultSpec{
		VMFailureRate: 0.5, VMMinLifetime: time.Minute, VMMaxLifetime: 10 * time.Minute,
		StragglerRate: 0.3, StragglerSlowdown: 3,
	}
	a, b := NewFaultPlan(42, spec), NewFaultPlan(42, spec)
	anyFail, anySlow := false, false
	for i := 0; i < 200; i++ {
		fa, sa := a.draw(i)
		fb, sb := b.draw(i)
		if fa != fb || sa != sb {
			t.Fatalf("draw %d diverged: (%s,%g) vs (%s,%g)", i, fa, sa, fb, sb)
		}
		if fa > 0 {
			anyFail = true
			if fa < spec.VMMinLifetime || fa > spec.VMMaxLifetime {
				t.Fatalf("draw %d lifetime %s outside [%s,%s]", i, fa, spec.VMMinLifetime, spec.VMMaxLifetime)
			}
		}
		if sa > 0 {
			anySlow = true
			if sa != 3 {
				t.Fatalf("draw %d slowdown %g, want 3", i, sa)
			}
		}
	}
	if !anyFail || !anySlow {
		t.Fatalf("200 draws at 50%%/30%% rates produced anyFail=%v anySlow=%v", anyFail, anySlow)
	}
	other := NewFaultPlan(43, spec)
	same := true
	for i := 0; i < 200 && same; i++ {
		fa, sa := a.draw(i)
		fo, so := other.draw(i)
		same = fa == fo && sa == so
	}
	if same {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestVMFailureRevokesAndKillsInProgress(t *testing.T) {
	vt := DefaultVMTypes(1)[0]
	vt.StartupDelay = 0
	s := NewSim()
	s.SetFaults(nil) // disarmed plan must be a no-op
	vm := s.Rent(vt, 0)
	vm.failAt = 5 * time.Minute // dooms the VM directly; plans only set this field

	// Three queries: the first completes before the failure, the second is
	// mid-flight at the instant, the third never starts.
	vm.Enqueue(1, 0, 0, 2*time.Minute)           // runs [0, 2m)
	vm.Enqueue(2, 0, time.Minute, 4*time.Minute) // runs [2m, 6m) — killed at 5m
	vm.Enqueue(3, 0, 2*time.Minute, time.Minute) // queued behind — revoked

	if got := vm.CollectFailed(4*time.Minute, nil); len(got) != 0 {
		t.Fatalf("collect before the failure instant returned %v", got)
	}
	got := vm.CollectFailed(6*time.Minute, nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("want tags [2 3] re-admitted, got %v", got)
	}
	if !vm.Failed() {
		t.Fatal("VM must be marked failed")
	}
	if again := vm.CollectFailed(7*time.Minute, nil); len(again) != 0 {
		t.Fatalf("second collect must be empty (exactly-once), got %v", again)
	}
	runs := s.Finish()
	if len(runs) != 1 || runs[0].Tag != 1 {
		t.Fatalf("only the completed run survives, got %v", runs)
	}
	if s.FailedVMs() != 1 {
		t.Fatalf("FailedVMs = %d, want 1", s.FailedVMs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Enqueue on a failed VM must panic")
		}
	}()
	vm.Enqueue(4, 0, 7*time.Minute, time.Minute)
}

func TestStragglerStretchesLatency(t *testing.T) {
	vt := DefaultVMTypes(1)[0]
	vt.StartupDelay = 0
	s := NewSim()
	vm := s.Rent(vt, 0)
	vm.slow = 2.5
	vm.Enqueue(1, 0, 0, 2*time.Minute)
	runs := s.Finish()
	if want := 5 * time.Minute; runs[0].End != want {
		t.Fatalf("straggler run end %s, want %s", runs[0].End, want)
	}
	if vm.Straggler() != 2.5 {
		t.Fatalf("Straggler() = %g", vm.Straggler())
	}
}

func TestSimRentDrawsFromPlan(t *testing.T) {
	spec := FaultSpec{VMFailureRate: 1, VMMinLifetime: time.Minute, VMMaxLifetime: time.Minute}
	s := NewSim()
	s.SetFaults(NewFaultPlan(7, spec))
	vm := s.Rent(DefaultVMTypes(1)[0], 10*time.Minute)
	at, doomed := vm.FailsAt()
	if !doomed || at != 11*time.Minute {
		t.Fatalf("FailsAt = (%s, %v), want (11m, true)", at, doomed)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetFaults after Rent must panic")
		}
	}()
	s.SetFaults(nil)
}
