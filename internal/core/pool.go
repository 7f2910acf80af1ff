package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"wisedb/internal/graph"
	"wisedb/internal/search"
	"wisedb/internal/workload"
)

// forEach runs fn(i) for every i in [0, n) across a pool of worker
// goroutines. It is the execution engine behind training, adaptive
// re-training, and strategy profiling: each index is an independent unit of
// work (one sample workload's exact search), so the pool hands out indices
// from an atomic counter and workers write results into caller-owned,
// per-index slots — no locks on the hot path, and the caller folds results
// in index order afterwards so the outcome is identical for any worker
// count.
//
// workers <= 0 selects runtime.GOMAXPROCS(0). The first error cancels the
// remaining work and is returned; a canceled ctx surfaces as its ctx.Err().
func forEach(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Inline fast path: no goroutines, same semantics.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// searchCacheGeneration is the epoch size of the transposition-cache
// barrier: sample searches run in generations of this many indices, and a
// generation's solved suffixes are committed to the shared cache only at
// the barrier after it completes. Every search therefore observes exactly
// the commits of strictly earlier generations — a pure function of the
// training inputs — so trained models stay bit-identical at any
// Parallelism even though equal-cost optima may be stitched from cached
// suffixes. The constant is deliberately independent of the worker count.
const searchCacheGeneration = 32

// pendingBuffers holds the per-generation suffix-record buffers of finished
// builds, so a build starts on the record slices and signature buffers
// earlier builds grew instead of regrowing them from empty. A buffer is
// returned empty and unbound; none holds a record or a cache.
var pendingBuffers = sync.Pool{New: func() any { return new([searchCacheGeneration]search.PendingSuffixes) }}

// solveSamplesFold runs run(i) for every sample index on the worker pool,
// inserting deterministic commit barriers when a transposition cache is in
// play, and pipelines a fold stage: after each generation's commit barrier,
// the completed index range [lo, hi) is handed to fold on a dedicated
// goroutine, so folding generation k (building the decision-tree dataset,
// harvesting counters) overlaps the searches of generation k+1. Ranges
// arrive in index order and fold runs single-threaded, so any fold that
// appends per index in range order produces exactly the sequence a
// post-hoc loop over [0, n) would — the pipelining is invisible to the
// result. The channel hand-off happens-before each fold call, so fold may
// freely read the per-index slots the workers wrote. With cache == nil
// there is one forEach over all indices and one fold. solveSamplesFold
// returns only after the fold goroutine has drained (on error, remaining
// ranges are discarded).
func solveSamplesFold(ctx context.Context, workers, n int, cache *search.TranspositionCache,
	run func(i int, cache *search.TranspositionCache, rec *search.PendingSuffixes) error,
	fold func(lo, hi int) error) error {
	// A few generations may queue behind a slow fold without stalling the
	// pool; the fold goroutine always drains, so sends never block for good.
	ranges := make(chan [2]int, 8)
	foldDone := make(chan error, 1)
	go func() {
		var err error
		for r := range ranges {
			if err == nil {
				err = fold(r[0], r[1])
			}
			// After a fold error, keep draining so a send never blocks.
		}
		foldDone <- err
	}()
	// finish closes the pipeline and joins the fold goroutine; the run
	// error wins over a fold error (it happened first).
	finish := func(err error) error {
		close(ranges)
		foldErr := <-foldDone
		if err == nil {
			err = foldErr
		}
		return err
	}

	if cache == nil {
		// No barriers to pipeline against: one pool pass, one fold.
		err := forEach(ctx, workers, n, func(i int) error { return run(i, nil, nil) })
		if err == nil && n > 0 {
			ranges <- [2]int{0, n}
		}
		return finish(err)
	}
	gen := searchCacheGeneration
	if gen > n {
		gen = n
	}
	// The buffers are bound to the cache, so a worker drops a record the
	// cache holds already (search.PendingSuffixes.Into): most of what a
	// replay of the prior epoch's path records. The cache is written only
	// at the barrier below, while no worker runs.
	bufs := pendingBuffers.Get().(*[searchCacheGeneration]search.PendingSuffixes)
	pending := bufs[:gen]
	for j := range pending {
		pending[j].Into(cache)
	}
	for base := 0; base < n; base += gen {
		g := gen
		if base+g > n {
			g = n - base
		}
		first := base
		if err := forEach(ctx, workers, g, func(j int) error {
			return run(first+j, cache, &pending[j])
		}); err != nil {
			return finish(err)
		}
		// Commit order is irrelevant (the merge is commutative); doing it
		// at the barrier, single-threaded, is what keeps the visible cache
		// state independent of goroutine scheduling.
		for j := 0; j < g; j++ {
			cache.Commit(&pending[j])
		}
		ranges <- [2]int{base, base + g}
	}
	// Every buffer is committed and empty; a failed build drops its buffers
	// instead, with whatever they still hold.
	for j := range pending {
		pending[j].Into(nil)
	}
	pendingBuffers.Put(bufs)
	return finish(nil)
}

// startOnce solves each distinct start state once. A non-monotonic goal's
// search reads nothing but its start vertex — Solve ignores the cache and
// the suffix records there — and the start vertex holds
// only the workload's per-template counts, so sample workloads with the same
// counts have the same result. The first worker to reach a start signature
// searches it; every other sample with that signature waits for and shares
// the immutable *search.Result. Which worker searches does not matter: the
// result is a pure function of the start state. A nil *startOnce searches
// every call: a monotonic search also reads the transposition cache earlier
// generations filled, and its hit/miss counters and suffix records belong
// to the sample.
type startOnce struct {
	prob    *graph.Problem
	mu      sync.Mutex
	byStart map[string]*solveOnce
}

type solveOnce struct {
	once sync.Once
	res  *search.Result
	err  error
}

// newStartOnce returns the dedupe of a build under prob's goal: nil for
// monotonic goals.
func newStartOnce(prob *graph.Problem) *startOnce {
	if prob.Goal.Monotonic() {
		return nil
	}
	return &startOnce{prob: prob, byStart: map[string]*solveOnce{}}
}

// solve returns solve()'s result for w's start state, running it only if no
// earlier call had the same start signature.
func (d *startOnce) solve(w *workload.Workload, solve func() (*search.Result, error)) (*search.Result, error) {
	if d == nil {
		return solve()
	}
	key := d.prob.Signature(d.prob.Start(w))
	d.mu.Lock()
	e := d.byStart[key]
	if e == nil {
		e = new(solveOnce)
		d.byStart[key] = e
	}
	d.mu.Unlock()
	e.once.Do(func() { e.res, e.err = solve() })
	return e.res, e.err
}

// searches is the number of searches the build ran once its pool has
// drained: solved, the count of samples it did not replay, less the repeats
// the dedupe answered.
func (d *startOnce) searches(solved int) int {
	if d == nil {
		return solved
	}
	return len(d.byStart)
}

// deriveSeed mixes a per-sample sub-seed out of the training seed and the
// sample index with a SplitMix64 finalizer. Every sample workload is drawn
// from its own deterministic sub-stream, so sample i is the same workload no
// matter which worker draws it — training results are bit-identical for any
// Parallelism.
func deriveSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
