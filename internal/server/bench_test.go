package server

import (
	"context"
	"testing"
	"time"

	"wisedb/internal/wire"
)

// BenchmarkNetArrival measures the end-to-end network arrival path over
// loopback TCP: a pipelined client window of Submit frames against the
// daemon's pooled decode → admission → placement → ack loop. Compare
// with core's BenchmarkOnlineArrival for the network tax over the
// in-process ceiling. A window of 64 puts some thirty frames behind each
// socket read, so deadlines (armed per socket operation) are off its
// per-arrival path.
func BenchmarkNetArrival(b *testing.B) {
	c := benchClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	if err := sendPipelined(c, b.N, 64); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	res, err := c.Finish()
	if err != nil {
		b.Fatal(err)
	}
	if int(res.Completed) != b.N {
		b.Fatalf("completed %d of %d arrivals", res.Completed, b.N)
	}
}

// BenchmarkNetArrivalSync is the traffic that bypasses the window: one
// Client.Submit (Send + Flush + ReadAck) per arrival, so every frame on
// both ends goes to the socket and arms its deadlines — the network
// path's cost per arrival when nothing is pipelined.
func BenchmarkNetArrivalSync(b *testing.B) {
	c := benchClient(b)
	q := []wire.Query{{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[0] = wire.Query{Template: uint32(i % 4), Tag: uint32(i)}
		if _, _, _, err := c.Submit(q, time.Duration(i)*gap, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res, err := c.Finish()
	if err != nil {
		b.Fatal(err)
	}
	if int(res.Completed) != b.N {
		b.Fatalf("completed %d of %d arrivals", res.Completed, b.N)
	}
}

// sendPipelined drives n single-query steady-state arrivals the way
// `wisedb load` does — a window of Submit frames in flight, flushed when
// full and drained to half — and returns with every ack read.
func sendPipelined(c *Client, n, window int) error {
	q := []wire.Query{{}}
	drain := func(to int) error {
		for c.Pending() > to {
			if _, _, _, err := c.ReadAck(); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		q[0] = wire.Query{Template: uint32(i % 4), Tag: uint32(i)}
		if err := c.Send(q, time.Duration(i)*gap, 0); err != nil {
			return err
		}
		if c.Pending() >= window {
			if err := c.Flush(); err != nil {
				return err
			}
			if err := drain(window / 2); err != nil {
				return err
			}
		}
	}
	if err := c.Flush(); err != nil {
		return err
	}
	return drain(0)
}

// benchClient starts a daemon on loopback and dials it; both are torn
// down with the benchmark.
func benchClient(b *testing.B) *Client {
	b.Helper()
	s, err := New(Config{Engine: testEngine(b), Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	c, err := Dial(s.Addr().String(), testClientOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c
}
