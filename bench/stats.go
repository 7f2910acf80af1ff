package main

import (
	"math"
	"slices"
	"time"
)

// sinceMS is the time since t0 in milliseconds, with every digit the clock
// gave.
func sinceMS(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// median returns the middle value of xs (mean of the two middle values for
// an even count). xs is not modified; an empty slice yields NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileSorted returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice together with the number of samples strictly beyond
// that rank — the count the "at least ten samples beyond it" rule is about.
func percentileSorted(sorted []int64, p float64) (value int64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n - rank
}

// quartileSpread is the distance between the first and third quartile of xs
// as a share of their median, with the quartiles computed the way Python's
// statistics.quantiles(values, n=4) does (exclusive method) — the driver's
// acceptance statistic. It needs at least two values.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 { // i-th cut point of four, exclusive method
		n := len(s)
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4) // outside 0..4 only when j was clamped
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return math.NaN()
	}
	return (q(3) - q(1)) / math.Abs(med)
}
