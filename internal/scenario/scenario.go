// Package scenario is the trace-driven evaluation harness: composable,
// seeded arrival-process and mix-process generators that turn a scenario
// Spec into the tenant streams the serving engine replays. Every behavior
// claim before this harness was measured on uniform or single-flip-skew
// arrivals at a fixed VM price — exactly the regime where latent simulator
// bugs hide. The catalog below (Poisson, heavy-tailed Pareto, diurnal
// sinusoid, flash-crowd bursts, correlated multi-tenant shifts, gold/bronze
// priority tiers, spot pricing) is both an evaluation suite and a directed
// bug probe: each generated trace is bit-deterministic (a pure function of
// the Spec), so any run can be replayed at any RunTenants parallelism and
// must produce identical OnlineResults.
//
// Generation is offline — it happens before serving starts, so generator
// allocations are free; the serving path's 0 allocs/arrival invariant is
// what the generated traces are used to probe, not a constraint on the
// generators themselves.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/workload"
)

// ArrivalProcess generates n arrival instants from a seeded source. The
// returned slice is in generation order, which is NOT necessarily sorted:
// burst injection (FlashCrowd) appends its spikes after later base
// arrivals, producing the ties and inversions that out-of-order production
// traces contain. Workload.WithArrivals owns the stable sort.
type ArrivalProcess interface {
	Arrivals(rng *rand.Rand, n int) []time.Duration
	Name() string
}

// Poisson is a memoryless arrival process: exponential inter-arrival gaps
// with the given mean. The classic open-system baseline.
type Poisson struct {
	// Mean is the mean inter-arrival gap (1/λ).
	Mean time.Duration
}

func (p Poisson) Name() string { return "poisson" }

func (p Poisson) Arrivals(rng *rand.Rand, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := time.Duration(0)
	for i := range out {
		if i > 0 {
			t += time.Duration(rng.ExpFloat64() * float64(p.Mean))
		}
		out[i] = t
	}
	return out
}

// Pareto is a heavy-tailed arrival process: inter-arrival gaps drawn from a
// Pareto distribution with the given scale (minimum gap) and tail index
// Alpha. Small Alpha (≤ 2) produces the long quiet stretches punctuated by
// dense clusters that production traces show and exponential models miss.
type Pareto struct {
	// Scale is the minimum inter-arrival gap x_m.
	Scale time.Duration
	// Alpha is the tail index; gaps follow P(gap > x) = (Scale/x)^Alpha.
	// Must be positive. Alpha ≤ 1 has infinite mean — legal here, the
	// trace is finite.
	Alpha float64
}

func (p Pareto) Name() string { return "pareto" }

func (p Pareto) Arrivals(rng *rand.Rand, n int) []time.Duration {
	if p.Alpha <= 0 {
		panic("scenario: Pareto requires Alpha > 0")
	}
	out := make([]time.Duration, n)
	t := time.Duration(0)
	for i := range out {
		if i > 0 {
			// Inverse CDF: x_m · U^(-1/α), with U in (0, 1].
			u := 1 - rng.Float64()
			t += time.Duration(float64(p.Scale) * math.Pow(u, -1/p.Alpha))
		}
		out[i] = t
	}
	return out
}

// Diurnal is a sinusoid-modulated Poisson process: the instantaneous rate
// swings by ±Depth around its mean over each Period, modeling the
// day/night load cycle. Depth 0 degenerates to Poisson.
type Diurnal struct {
	// Mean is the mean inter-arrival gap at the cycle midpoint.
	Mean time.Duration
	// Period is the length of one day/night cycle.
	Period time.Duration
	// Depth in [0, 1) scales the swing: the instantaneous rate is
	// (1 + Depth·sin(2πt/Period)) / Mean.
	Depth float64
}

func (d Diurnal) Name() string { return "diurnal" }

func (d Diurnal) Arrivals(rng *rand.Rand, n int) []time.Duration {
	if d.Depth < 0 || d.Depth >= 1 {
		panic("scenario: Diurnal requires Depth in [0, 1)")
	}
	out := make([]time.Duration, n)
	t := time.Duration(0)
	for i := range out {
		if i > 0 {
			rate := 1 + d.Depth*math.Sin(2*math.Pi*float64(t)/float64(d.Period))
			t += time.Duration(rng.ExpFloat64() * float64(d.Mean) / rate)
		}
		out[i] = t
	}
	return out
}

// FlashCrowd injects burst spikes into a base process: every Every, Size
// arrivals land at the identical instant. The spikes are appended AFTER the
// base arrivals in generation order, so the trace carries both ties (the
// spike members) and inversions (a spike at t=30s appearing after base
// arrivals at t=5m) — the shape that flushed out Workload.WithArrivals's
// O(n²) insertion sort and exercises newArrivalQueue's unsorted path.
type FlashCrowd struct {
	// Base generates the background arrivals.
	Base ArrivalProcess
	// Every is the burst cadence: spikes land at Every, 2·Every, ….
	Every time.Duration
	// Size is the number of simultaneous arrivals per spike.
	Size int
}

func (f FlashCrowd) Name() string { return "flash-crowd" }

func (f FlashCrowd) Arrivals(rng *rand.Rand, n int) []time.Duration {
	if f.Size <= 0 || f.Every <= 0 {
		panic("scenario: FlashCrowd requires Size > 0 and Every > 0")
	}
	bursts := 0
	for burst := 1; bursts+f.Size <= n/2; burst++ {
		bursts += f.Size // cap spike volume at half the trace
	}
	base := f.Base.Arrivals(rng, n-bursts)
	out := make([]time.Duration, 0, n)
	out = append(out, base...)
	for burst := 1; len(out)+f.Size <= n; burst++ {
		at := time.Duration(burst) * f.Every
		for j := 0; j < f.Size; j++ {
			out = append(out, at)
		}
	}
	for len(out) < n { // odd remainder rides the base process's tail
		out = append(out, base[len(base)-1])
	}
	return out
}

// MixProcess yields the template mix in effect at a given instant: a weight
// vector over k templates written into buf (resized as needed). Generators
// draw each query's template from the mix at its own arrival time, which is
// how a trace carries a time-varying or shifting workload mix.
type MixProcess interface {
	WeightsAt(k int, t time.Duration, buf []float64) []float64
	Name() string
}

// StaticMix is a time-invariant mix: uniform at Skew 0, interpolating to a
// point mass on Favorite at Skew 1 (workload.SkewWeights).
type StaticMix struct {
	Skew     float64
	Favorite int
}

func (m StaticMix) Name() string { return "static" }

func (m StaticMix) WeightsAt(k int, _ time.Duration, buf []float64) []float64 {
	buf = uniformInto(k, m.Skew, buf)
	buf[m.Favorite%k] += m.Skew
	return buf
}

// DiurnalMix oscillates the favored template between Day and Night over
// each Period: Skew mass moves sinusoidally between the two favorites while
// the rest of the mix stays uniform. The time-averaged mix is symmetric in
// Day and Night — the shape that probes whether the drift detector's
// sliding window re-triggers every half-cycle on a workload whose long-run
// mix never actually changes.
type DiurnalMix struct {
	Period     time.Duration
	Skew       float64
	Day, Night int
}

func (m DiurnalMix) Name() string { return "diurnal-mix" }

func (m DiurnalMix) WeightsAt(k int, t time.Duration, buf []float64) []float64 {
	phase := (1 + math.Sin(2*math.Pi*float64(t)/float64(m.Period))) / 2
	buf = uniformInto(k, m.Skew, buf)
	buf[m.Day%k] += m.Skew * phase
	buf[m.Night%k] += m.Skew * (1 - phase)
	return buf
}

// ShiftMix flips the favored template from Before to After at instant At —
// the abrupt mix change drift detection exists to catch. Multiple tenants
// sharing one ShiftMix (same At) model a correlated, fleet-wide shift.
type ShiftMix struct {
	At            time.Duration
	Skew          float64
	Before, After int
}

func (m ShiftMix) Name() string { return "shift" }

func (m ShiftMix) WeightsAt(k int, t time.Duration, buf []float64) []float64 {
	buf = uniformInto(k, m.Skew, buf)
	if t < m.At {
		buf[m.Before%k] += m.Skew
	} else {
		buf[m.After%k] += m.Skew
	}
	return buf
}

// uniformInto fills buf with the uniform remainder (1−skew)/k of a skewed
// mix, growing it to k slots.
func uniformInto(k int, skew float64, buf []float64) []float64 {
	if skew < 0 || skew > 1 {
		panic("scenario: mix skew must be in [0, 1]")
	}
	if cap(buf) < k {
		buf = make([]float64, k)
	}
	buf = buf[:k]
	u := (1 - skew) / float64(k)
	for i := range buf {
		buf[i] = u
	}
	return buf
}

// TenantSpec is one tenant stream of a scenario: an identity, the SLA tier
// (registry) it binds to, and the arrival and mix processes that generate
// its trace.
type TenantSpec struct {
	// Name identifies the tenant and feeds its trace's sub-seed. Names
	// must be unique within a Spec.
	Name string
	// Registry is the model registry (SLA tier) the tenant's stream binds
	// to: "" for the default tier, or a named tier such as "gold" /
	// "bronze" registered on the engine (multi-registry serving).
	Registry string
	// Queries is the trace length.
	Queries int
	// Arrivals generates the tenant's arrival instants.
	Arrivals ArrivalProcess
	// Mix generates the tenant's template mix; nil means uniform.
	Mix MixProcess
}

// Spec is a complete, seeded scenario: tenants plus the price environment.
// A Spec is a pure value — Generate is deterministic in (Spec, templates),
// so committing a Spec commits the exact trace every CI run replays.
type Spec struct {
	// Name labels the scenario in tables and benchmarks.
	Name string
	// Seed feeds every tenant's generator through per-tenant SplitMix64
	// sub-seeds: tenant traces are independent, and inserting or
	// reordering tenants does not perturb other tenants' draws.
	Seed int64
	// Tenants are the scenario's streams.
	Tenants []TenantSpec
	// Prices, when non-nil, is the spot-style time-varying VM price
	// schedule the scenario serves under (OnlineOptions.Prices).
	Prices *cloud.PriceSchedule
}

// subSeed derives tenant i's rand seed from the spec seed: SplitMix64 over
// the (seed, index, name-hash) triple, so every tenant owns an independent,
// reproducible stream. The name hash is FNV-1a finalized by SplitMix64.
func (s *Spec) subSeed(i int) int64 {
	name := s.Tenants[i].Name
	nh := uint64(14695981039346656037)
	for j := 0; j < len(name); j++ {
		nh ^= uint64(name[j])
		nh *= 1099511628211
	}
	h := mix64(uint64(s.Seed)*0x9e3779b97f4a7c15 + uint64(i) + mix64(nh))
	return int64(h &^ (1 << 63)) // non-negative, rand.NewSource takes int64
}

// mix64 is SplitMix64's finalizer: a cheap, well-dispersed 64-bit mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Generate renders the scenario into serving-ready tenants: each tenant's
// arrival instants and per-query templates are drawn from its seeded
// generators, and the trace is assembled with Workload.WithArrivals (stable
// sort — burst-injected ties keep generation order). The result feeds
// core.OnlineScheduler.RunTenants directly.
func (s *Spec) Generate(templates []workload.Template) []core.Tenant {
	tenants := make([]core.Tenant, len(s.Tenants))
	k := len(templates)
	var weights []float64
	for i, ts := range s.Tenants {
		if ts.Queries <= 0 {
			panic(fmt.Sprintf("scenario: tenant %q has no queries", ts.Name))
		}
		rng := rand.New(rand.NewSource(s.subSeed(i)))
		arrivals := ts.Arrivals.Arrivals(rng, ts.Queries)
		if len(arrivals) != ts.Queries {
			panic(fmt.Sprintf("scenario: %s generated %d arrivals for %d queries", ts.Arrivals.Name(), len(arrivals), ts.Queries))
		}
		queries := make([]workload.Query, ts.Queries)
		for j := range queries {
			tpl := j % k
			if ts.Mix != nil {
				weights = ts.Mix.WeightsAt(k, arrivals[j], weights)
				tpl = drawTemplate(weights, rng.Float64())
			} else {
				tpl = rng.Intn(k)
			}
			queries[j] = workload.Query{TemplateID: tpl, Tag: j}
		}
		w := &workload.Workload{Templates: templates, Queries: queries}
		tenants[i] = core.Tenant{
			Registry: ts.Registry,
			Workload: w.WithArrivals(arrivals),
		}
	}
	return tenants
}

// drawTemplate maps a unit variate onto the weight vector's inverse CDF —
// the same walk workload.WeightedFromVariates uses, so identical variates
// under identical weights pick identical templates.
func drawTemplate(weights []float64, u float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	r := u * total
	for j, w := range weights {
		if r < w {
			return j
		}
		r -= w
	}
	return len(weights) - 1
}

// Catalog returns the standard scenario suite: one Spec per row of the
// EXPERIMENTS.md scenario table, each a seeded pure value. n is the trace
// length per tenant; gap the base mean inter-arrival gap. Every scenario in
// the catalog has a pinned bit-determinism test and runs under -race in CI
// as a probe against the serving invariants.
func Catalog(seed int64, n int, gap time.Duration) []Spec {
	return []Spec{
		{
			Name: "poisson",
			Seed: seed,
			Tenants: []TenantSpec{
				{Name: "t0", Queries: n, Arrivals: Poisson{Mean: gap}},
			},
		},
		{
			Name: "pareto",
			Seed: seed + 1,
			Tenants: []TenantSpec{
				{Name: "t0", Queries: n, Arrivals: Pareto{Scale: gap / 2, Alpha: 1.5}},
			},
		},
		{
			Name: "diurnal",
			Seed: seed + 2,
			Tenants: []TenantSpec{
				{Name: "t0", Queries: n,
					Arrivals: Diurnal{Mean: gap, Period: time.Duration(n) * gap / 4, Depth: 0.8},
					Mix:      DiurnalMix{Period: time.Duration(n) * gap / 4, Skew: 0.6, Day: 0, Night: 1}},
			},
		},
		{
			Name: "flash-crowd",
			Seed: seed + 3,
			Tenants: []TenantSpec{
				{Name: "t0", Queries: n,
					Arrivals: FlashCrowd{Base: Poisson{Mean: gap}, Every: time.Duration(n) * gap / 5, Size: 4 + n/32}},
			},
		},
		{
			Name: "tiered",
			Seed: seed + 4,
			Tenants: []TenantSpec{
				{Name: "gold-0", Registry: "gold", Queries: n, Arrivals: Poisson{Mean: gap}},
				{Name: "bronze-0", Registry: "bronze", Queries: n, Arrivals: Poisson{Mean: gap}},
				{Name: "bronze-1", Registry: "bronze", Queries: n, Arrivals: Pareto{Scale: gap / 2, Alpha: 1.8}},
			},
		},
		{
			Name: "spot",
			Seed: seed + 5,
			Tenants: []TenantSpec{
				{Name: "t0", Queries: n, Arrivals: Poisson{Mean: gap}},
			},
			Prices: cloud.Spot(seed+5, time.Duration(n)*gap/8, 16, 0.5, 2.0),
		},
		{
			Name: "mix-shift",
			Seed: seed + 6,
			Tenants: []TenantSpec{
				// Three tenants shifting their mix at the same instant: a
				// correlated, fleet-wide change, not independent noise.
				{Name: "t0", Queries: n, Arrivals: Poisson{Mean: gap},
					Mix: ShiftMix{At: time.Duration(n) * gap / 2, Skew: 0.8, Before: 0, After: 1}},
				{Name: "t1", Queries: n, Arrivals: Poisson{Mean: gap},
					Mix: ShiftMix{At: time.Duration(n) * gap / 2, Skew: 0.8, Before: 0, After: 1}},
				{Name: "t2", Queries: n, Arrivals: Poisson{Mean: gap},
					Mix: ShiftMix{At: time.Duration(n) * gap / 2, Skew: 0.8, Before: 0, After: 1}},
			},
		},
	}
}
