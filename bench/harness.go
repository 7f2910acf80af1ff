package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"wisedb/internal/core"
)

// counters is what one timed section cost the process.
type counters struct {
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
}

func (c *counters) add(o counters) {
	c.wall += o.wall
	c.cpu += o.cpu
	c.allocBytes += o.allocBytes
	c.mallocs += o.mallocs
	c.gcCycles += o.gcCycles
}

// rusage reads the process's CPU time (user + system, all threads) and its
// peak resident set. Getrusage cannot fail for RUSAGE_SELF with a valid
// pointer, so its error is not checked.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// measure runs f and reports what it cost. The two ReadMemStats calls stop
// the world for tens of microseconds each, outside the timed interval.
func measure(f func() error) (counters, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, _ := rusage()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	cpu1, _ := rusage()
	runtime.ReadMemStats(&after)
	return counters{
		wall:       wall,
		cpu:        cpu1 - cpu0,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		mallocs:    after.Mallocs - before.Mallocs,
		gcCycles:   after.NumGC - before.NumGC,
	}, err
}

// roundResult is one fixed-work round.
type roundResult struct {
	counters
	ops, failed int
	// cost is the schedule cost, in cents, of queries queries.
	cost    float64
	queries int
	// fingerprint covers everything that must repeat from round to round:
	// costs, VMs rented, completion counts, model dumps.
	fingerprint uint64
	// obs are counts read at layer boundaries during the round, summed by
	// the trace run into per-layer metrics.
	obs map[string]float64
	// failures are the round's failed correctness checks.
	failures []string
}

// instance is one set-up workload.
type instance interface {
	// round performs one round of fixed work. It appends the wall time of
	// every individually timed op to lat, in nanoseconds, and records
	// spans when tr is not nil.
	round(tr *tracer, lat *[]int64) (roundResult, error)
	// extra performs one more round's worth of work, untimed: it calls
	// hold at the round's fullest point (everything submitted, nothing
	// finished, results still referenced) and runs the checks that are
	// too slow for a timed round.
	extra(hold func()) error
	// layers runs the workload's layer probes and turns them, the span
	// summary and the traced rounds' counts into per-layer metrics.
	layers(t *traced) (map[string]float64, error)
	close() error
}

// traced is what the trace run hands to instance.layers.
type traced struct {
	tr     *tracer // probes append their spans here
	spans  map[string]*spanStats
	rounds []roundResult // the traced rounds
	plain  []roundResult // the untraced rounds run between them
}

func (t *traced) obs(key string) float64 {
	sum := 0.0
	for _, r := range t.rounds {
		sum += r.obs[key]
	}
	return sum
}

func sumRounds(rounds []roundResult) (ops, failed int, c counters) {
	for _, r := range rounds {
		ops += r.ops
		failed += r.failed
		c.add(r.counters)
	}
	return ops, failed, c
}

// report is the outcome of one run of one workload.
type report struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string // sample counts and other context, printed with the table
}

var errIncorrect = errors.New("correctness check failed")

// checker collects failed correctness checks; each also counts as one
// failed op.
type checker struct {
	failures []string
}

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// warmProcess spends at least d on throwaway training before anything is
// timed: the first ≈ 0.8 s of a process runs the same training at about
// half speed (page faults, heap growth, CPU frequency).
func warmProcess(in *inputs, d time.Duration) error {
	adv, err := core.NewAdvisor(in.env, in.sz.serving)
	if err != nil {
		return err
	}
	for t0 := time.Now(); time.Since(t0) < d; {
		if _, err := adv.Train(in.goal); err != nil {
			return err
		}
	}
	return nil
}

// setUp performs the workload's timed from-scratch set-ups and returns the
// last instance with the median set-up time.
func setUp(wl *workloadDef, in *inputs, k int) (instance, float64, error) {
	discard := 0
	if k > 1 {
		discard = 1
	}
	var inst instance
	times := make([]float64, 0, k)
	for i := 0; i < discard+k; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
		}
		runtime.GC() // each set-up starts from the same heap
		t0 := time.Now()
		var err error
		inst, err = wl.setup(in)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up %d: %w", i, err)
		}
		if i >= discard {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	return inst, median(times), nil
}

// warmUp runs untimed rounds for at least d (and at least one) and returns
// the last round, whose fingerprint every timed round must repeat.
func warmUp(inst instance, d time.Duration) (roundResult, error) {
	var scratch []int64
	for t0 := time.Now(); ; {
		scratch = scratch[:0]
		r, err := inst.round(nil, &scratch)
		if err != nil {
			return r, err
		}
		if time.Since(t0) >= d {
			return r, nil
		}
	}
}

// checkRound verifies a round against the reference round.
func checkRound(ck *checker, i int, r, ref roundResult) {
	for _, f := range r.failures {
		ck.failf("round %d: %s", i, f)
	}
	if r.fingerprint != ref.fingerprint {
		ck.failf("round %d: result fingerprint %016x differs from the warm-up round's %016x", i, r.fingerprint, ref.fingerprint)
	}
	if math.Float64bits(r.cost) != math.Float64bits(ref.cost) || r.queries != ref.queries {
		ck.failf("round %d: cost %v over %d queries differs from the warm-up round's %v over %d", i, r.cost, r.queries, ref.cost, ref.queries)
	}
	if r.ops != ref.ops {
		ck.failf("round %d: %d ops, the warm-up round had %d", i, r.ops, ref.ops)
	}
}

// runEndToEnd measures the end-to-end metrics of one workload, tracing off.
func runEndToEnd(wl *workloadDef, in *inputs, seconds float64) (*report, error) {
	setupK, minRounds := wl.setupK, wl.minRounds
	if in.sz.quick {
		setupK, minRounds = 1, 1
	}
	inst, setupS, err := setUp(wl, in, setupK)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	ref, err := warmUp(inst, in.sz.warmUp)
	if err != nil {
		return nil, err
	}

	// Timing metrics report the least disturbed repetition, not the typical
	// one: on this box memory-bound code slows by 1.3–1.7× for seconds to
	// minutes at a time (README, "This box has weather"), and medians of
	// rounds and percentiles pooled over rounds then spread by 20–60 % from
	// run to run — two to three times what these do.
	//
	//   - ops_per_s is the fastest round;
	//   - op_p50_us is the lowest of the rounds' median op times;
	//   - op_tail_us is a percentile over the ops of one round of each op's
	//     fastest repetition: every round issues the same ops in the same
	//     order, so op i of one round does the work of op i of every other,
	//     and what is left in the tail is ops that are slow every time.
	ck := &checker{}
	lat := make([]int64, 0, ref.ops)
	var best []int64
	var rounds []roundResult
	fastest, p50 := 0.0, int64(math.MaxInt64)
	for t0 := time.Now(); time.Since(t0).Seconds() < seconds || len(rounds) < minRounds; {
		lat = lat[:0]
		r, err := inst.round(nil, &lat)
		if err != nil {
			return nil, err
		}
		checkRound(ck, len(rounds), r, ref)
		rounds = append(rounds, r)
		fastest = max(fastest, float64(r.ops)/r.wall.Seconds())
		if best == nil {
			best = slices.Clone(lat)
		} else if len(lat) != len(best) {
			ck.failf("round %d timed %d ops, round 0 timed %d", len(rounds)-1, len(lat), len(best))
		} else {
			for i, v := range lat {
				best[i] = min(best[i], v)
			}
		}
		slices.Sort(lat)
		roundP50, _ := percentileSorted(lat, 50)
		p50 = min(p50, roundP50)
	}

	ops, failed, total := sumRounds(rounds)
	slices.Sort(best)
	tail, beyond := percentileSorted(best, wl.tailPct)
	if len(best) > 0 && best[0]*int64(wl.opsPerSample) < 1000 {
		ck.failf("a timed interval of %d op(s) took %d ns; nothing under 1 µs may be timed alone", wl.opsPerSample, best[0]*int64(wl.opsPerSample))
	}
	samples := len(best)
	lat, best = nil, nil // the live-heap reading must not see the benchmark's own samples

	var liveMB float64
	err = inst.extra(func() {
		runtime.GC()
		runtime.GC() // the second collection empties what sync.Pools kept through the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		liveMB = float64(ms.HeapAlloc) / 1e6
	})
	if err != nil {
		if !errors.Is(err, errIncorrect) {
			return nil, err
		}
		ck.failf("%v", err)
	}
	closed = true
	if err := inst.close(); err != nil {
		return nil, err
	}

	rep := &report{
		workload:  wl.name,
		attempted: ops,
		failed:    min(failed+len(ck.failures), ops),
		metrics: map[string]float64{
			"setup_s":              setupS,
			"ops_per_s":            fastest,
			"op_p50_us":            float64(p50) / 1e3,
			"op_tail_us":           float64(tail) / 1e3,
			"alloc_bytes_per_op":   float64(total.allocBytes) / float64(ops),
			"live_heap_mb":         liveMB,
			"cost_cents_per_query": ref.cost / float64(ref.queries),
			"failed_ops_ratio":     float64(failed+len(ck.failures)) / float64(ops),
		},
	}
	rep.correct = len(ck.failures) == 0
	perRound := make([]float64, len(rounds))
	for i, r := range rounds {
		perRound[i] = float64(r.ops) / r.wall.Seconds()
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("%d timed rounds of %d ops after %d set-ups; op_tail_us is p%g of %d op samples (each the fastest of %d repetitions), %d beyond it",
			len(rounds), ref.ops, setupK, wl.tailPct, samples, len(rounds), beyond),
		fmt.Sprintf("ops_per_s of each round (the fastest is reported, their median is %.6g): %.6g", median(perRound), perRound))
	for _, f := range ck.failures {
		rep.notes = append(rep.notes, "FAILED CHECK: "+f)
	}
	return rep, nil
}

// runTraced measures the per-layer metrics of one workload: one set-up,
// then tracedRounds pairs of an untraced and a traced round (the difference
// is the tracing overhead), then the workload's layer probes.
func runTraced(wl *workloadDef, in *inputs, traceOut string) (*report, error) {
	inst, _, err := setUp(wl, in, 1)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ref, err := warmUp(inst, 0)
	if err != nil {
		return nil, err
	}

	ck := &checker{}
	tr := newTracer(in.sz.tracedRounds * (int(wl.spansPerOp*float64(ref.ops)) + 64))
	lat := make([]int64, 0, ref.ops)
	t := &traced{tr: tr}
	for i := 0; i < in.sz.tracedRounds; i++ {
		lat = lat[:0]
		plain, err := inst.round(nil, &lat)
		if err != nil {
			return nil, err
		}
		checkRound(ck, 2*i, plain, ref)
		t.plain = append(t.plain, plain)
		lat = lat[:0]
		withSpans, err := inst.round(tr, &lat)
		if err != nil {
			return nil, err
		}
		checkRound(ck, 2*i+1, withSpans, ref)
		t.rounds = append(t.rounds, withSpans)
	}
	t.spans = summarize(tr.spans)

	metrics, err := inst.layers(t)
	if err != nil {
		if !errors.Is(err, errIncorrect) {
			return nil, err
		}
		ck.failf("%v", err)
	}

	plainOps, plainFailed, plain := sumRounds(t.plain)
	tracedOps, tracedFailed, withSpans := sumRounds(t.rounds)
	var selfNS int64
	for _, s := range t.spans {
		selfNS += s.self
	}
	metrics["process.cpu_us_per_op"] = float64(plain.cpu.Microseconds()) / float64(plainOps)
	metrics["process.allocs_per_op"] = float64(plain.mallocs) / float64(plainOps)
	metrics["process.gc_cycles_per_kop"] = 1000 * float64(plain.gcCycles) / float64(plainOps)
	_, metrics["process.peak_rss_mb"] = rusage()
	metrics["process.trace_overhead_ratio"] = (float64(plainOps) / plain.wall.Seconds()) / (float64(tracedOps) / withSpans.wall.Seconds())
	metrics["process.layers_sum_ratio"] = float64(selfNS) / float64(withSpans.wall.Nanoseconds())

	failed := plainFailed + tracedFailed + len(ck.failures)
	rep := &report{
		workload:  wl.name,
		correct:   len(ck.failures) == 0,
		attempted: plainOps + tracedOps,
		failed:    min(failed, plainOps+tracedOps),
		metrics:   metrics,
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d traced and %d untraced rounds of %d ops, %d spans",
		len(t.rounds), len(t.plain), ref.ops, len(tr.spans)))
	for _, f := range ck.failures {
		rep.notes = append(rep.notes, "FAILED CHECK: "+f)
	}
	if traceOut != "" {
		if err := tr.writeJSONLines(traceOut); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return rep, nil
}

// fingerprinter hashes the values a round must reproduce (FNV-1a).
type fingerprinter struct{ h hash.Hash64 }

func newFingerprinter() fingerprinter { return fingerprinter{fnv.New64a()} }

func (f fingerprinter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f fingerprinter) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f fingerprinter) str(s string) {
	f.u64(uint64(len(s)))
	io.WriteString(f.h, s)
}

func (f fingerprinter) sum() uint64 { return f.h.Sum64() }
