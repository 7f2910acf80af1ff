package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkShardedCacheContention measures the ω-map's lock cost under
// parallel hot-key traffic: every worker loops over the same 64 hot keys,
// so stripes=1 (a single-mutex cache) serializes on one lock while
// stripes=64 (the engine's cacheStripes) spreads the same traffic over
// independent stripes. EXPERIMENTS.md records the mutex-profile
// before/after on the reference runner.
func BenchmarkShardedCacheContention(b *testing.B) {
	m := benchModel(b)
	for _, stripes := range []int{1, 64} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			c := newModelCache(stripes)
			var builds atomic.Int64
			keys := make([]derivedKey, 64)
			for i := range keys {
				keys[i] = derivedKey{wait: time.Duration(i) * time.Second}
				if _, err := c.getOrBuild(context.Background(), keys[i], &builds,
					func() (*Model, error) { return m, nil }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					k := keys[i&63]
					i++
					if _, err := c.getOrBuild(context.Background(), k, &builds, nil); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkOnlineMultiTenant measures batch replay end to end: K tenants,
// half bound to a second registry, fresh-batch arrivals (the steady-state
// path), replayed by RunTenants at parallelism 1 — the serial baseline —
// and at GOMAXPROCS. arrivals/sec is the throughput metric.
func BenchmarkOnlineMultiTenant(b *testing.B) {
	m := benchModel(b)
	const n = 30
	for _, streams := range []int{64, 256} {
		for _, parallelism := range []int{1, 0} {
			name := fmt.Sprintf("streams=%d/parallelism=gomaxprocs", streams)
			if parallelism == 1 {
				name = fmt.Sprintf("streams=%d/parallelism=1", streams)
			}
			b.Run(name, func(b *testing.B) {
				o := NewOnlineScheduler(m, DefaultOnlineOptions())
				if _, err := o.AddRegistry("premium", m); err != nil {
					b.Fatal(err)
				}
				tenants := scaleTenants(m.Env().Templates, streams, n, 7*time.Minute, 17, "premium")
				if _, err := o.RunTenants(context.Background(), tenants, parallelism); err != nil {
					b.Fatal(err) // warm the stream pool before measuring
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := o.RunTenants(context.Background(), tenants, parallelism); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if b.N > 0 {
					perSec := float64(b.N*streams*n) / b.Elapsed().Seconds()
					b.ReportMetric(perSec, "arrivals/sec")
				}
			})
		}
	}
}
