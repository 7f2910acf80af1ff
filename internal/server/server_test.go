package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"wisedb/internal/chaos"
	"wisedb/internal/cloud"
	"wisedb/internal/core"
	"wisedb/internal/schedule"
	"wisedb/internal/sla"
	"wisedb/internal/store"
	"wisedb/internal/wire"
	"wisedb/internal/workload"
)

// gap is the virtual arrival spacing that keeps the engine in true
// steady state: every query finishes before the next arrives, so
// batches stay size 1 and the allocation-free allFresh path runs.
const gap = 7 * time.Minute

var (
	baseOnce  sync.Once
	baseModel *core.Model
	baseErr   error
)

// testModel trains one small base model per test binary; every server
// test shares it (training dominates test wall-clock otherwise).
func testModel(t testing.TB) *core.Model {
	t.Helper()
	baseOnce.Do(func() {
		env := schedule.NewEnv(workload.DefaultTemplates(4), cloud.DefaultVMTypes(1))
		cfg := core.DefaultTrainConfig()
		cfg.NumSamples = 80
		cfg.SampleSize = 6
		cfg.Seed = 11
		baseModel, baseErr = core.MustNewAdvisor(env, cfg).
			Train(sla.NewMaxLatency(15*time.Minute, env.Templates, sla.DefaultPenaltyRate))
	})
	if baseErr != nil {
		t.Fatal(baseErr)
	}
	return baseModel
}

func testEngine(t testing.TB) *core.OnlineScheduler {
	t.Helper()
	return core.NewOnlineScheduler(testModel(t), core.DefaultOnlineOptions())
}

// startServer builds and starts a server on a loopback port, wiring a
// drain into test cleanup.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = testEngine(t)
	}
	if cfg.Addr == "" && cfg.Listener == nil {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func testClientOptions() Options {
	return Options{
		Clock:   wire.ClockVirtual,
		Timeout: 10 * time.Second,
		Retry:   core.RetryPolicy{CheckpointAttempts: 4, CheckpointBackoff: 2 * time.Millisecond},
	}
}

func TestRoundTrip(t *testing.T) {
	s := startServer(t, Config{})
	c, err := Dial(s.Addr().String(), testClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Templates != 4 || c.MaxBatch != wire.MaxBatch {
		t.Fatalf("welcome advertised templates=%d maxBatch=%d", c.Templates, c.MaxBatch)
	}
	q := []wire.Query{{}}
	for i := 0; i < 20; i++ {
		q[0] = wire.Query{Template: uint32(i % 4), Tag: uint32(i)}
		acc, shed, draining, err := c.Submit(q, time.Duration(i)*gap, 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if acc != 1 || shed != 0 || draining {
			t.Fatalf("submit %d: acc=%d shed=%d draining=%v", i, acc, shed, draining)
		}
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20 || res.Shed != 0 {
		t.Fatalf("result completed=%d shed=%d, want 20/0", res.Completed, res.Shed)
	}
	if res.Cost <= 0 {
		t.Fatalf("served stream reports non-positive cost %v", res.Cost)
	}
	st := s.Stats()
	if st.Admitted != 20 || st.Completed != 20 || st.StreamsServed != 1 {
		t.Fatalf("stats admitted=%d completed=%d streams=%d", st.Admitted, st.Completed, st.StreamsServed)
	}
	if st.State != "serving" {
		t.Fatalf("state %q, want serving", st.State)
	}
}

// A repeated tag is outside input the daemon must refuse: the repeat ends
// the connection with an error, and the admitted work still completes
// exactly once.
func TestRepeatedTagRejected(t *testing.T) {
	s := startServer(t, Config{})
	c, err := Dial(s.Addr().String(), testClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := []wire.Query{{}}
	for i, tag := range []uint32{0, 1, 2, 1} {
		q[0] = wire.Query{Template: uint32(i % 4), Tag: tag}
		_, _, _, err := c.Submit(q, time.Duration(i)*gap, 0)
		if repeat := i == 3; (err != nil) != repeat {
			t.Fatalf("submit %d (tag %d, repeat %v): err %v", i, tag, repeat, err)
		}
	}
	waitStats(t, s, 5*time.Second, func(st Stats) bool { return st.ActiveConns == 0 })
	expectFlushed(t, s, 3)
	if got := s.Stats().ProtocolErrors; got != 1 {
		t.Fatalf("protocol_errors = %d, want 1", got)
	}
}

func TestUnknownRegistryRejected(t *testing.T) {
	s := startServer(t, Config{})
	opts := testClientOptions()
	opts.Registry = "no-such-registry"
	opts.DialAttempts = 1
	if _, err := Dial(s.Addr().String(), opts); err == nil {
		t.Fatal("dial to unknown registry succeeded")
	}
}

func TestMaxConnsRejectsExcess(t *testing.T) {
	s := startServer(t, Config{MaxConns: 1})
	c1, err := Dial(s.Addr().String(), testClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	opts := testClientOptions()
	opts.DialAttempts = 1
	if _, err := Dial(s.Addr().String(), opts); err == nil || !strings.Contains(err.Error(), "max connections") {
		t.Fatalf("second dial past the cap: %v", err)
	}
	if got := s.Stats().RejectedConns; got != 1 {
		t.Fatalf("rejected_conns = %d, want 1", got)
	}
}

func TestAdmissionControlShedsBeforeEngine(t *testing.T) {
	s := startServer(t, Config{AdmitRate: 0.001, AdmitBurst: 5})
	c, err := Dial(s.Addr().String(), testClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := make([]wire.Query, 8)
	for i := range q {
		q[i] = wire.Query{Template: uint32(i % 4), Tag: uint32(i)}
	}
	acc, shed, _, err := c.Submit(q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if acc != 5 || shed != 3 {
		t.Fatalf("burst of 8 into bucket of 5: acc=%d shed=%d", acc, shed)
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 5 || res.Shed != 3 {
		t.Fatalf("result completed=%d shed=%d, want 5/3", res.Completed, res.Shed)
	}
	st := s.Stats()
	if st.Admitted != 5 || st.Shed != 3 {
		t.Fatalf("stats admitted=%d shed=%d", st.Admitted, st.Shed)
	}
	// The network-level shed lands in the engine's ledger too — the
	// same counter MaxBacklog shedding uses.
	if st.Scale.ShedArrivals != 3 {
		t.Fatalf("engine ShedArrivals = %d, want 3", st.Scale.ShedArrivals)
	}
}

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(1000, 10)
	if got := b.take(4); got != 4 {
		t.Fatalf("take(4) from full bucket = %d", got)
	}
	if got := b.take(100); got < 6 {
		t.Fatalf("partial take = %d, want >= 6", got)
	}
	// A drained bucket refills at the configured rate.
	b.mu.Lock()
	b.tokens = 0
	b.last = time.Now().Add(-10 * time.Millisecond) // ≈10 tokens accrued
	b.mu.Unlock()
	if got := b.take(100); got < 5 {
		t.Fatalf("refilled take = %d, want >= 5", got)
	}
	// Refill never exceeds the burst.
	b.mu.Lock()
	b.tokens = 0
	b.last = time.Now().Add(-time.Hour)
	b.mu.Unlock()
	if got := b.take(1000); got > 10 {
		t.Fatalf("take after long idle = %d, burst is 10", got)
	}
}

func TestProtocolGarbageGetsTypedError(t *testing.T) {
	s := startServer(t, Config{})
	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	// A well-framed body with an unknown type: the server must answer
	// with an Error frame, not hang up silently.
	raw.Write([]byte{2, 0, 0, 0, 99, 0})
	var f wire.Frame
	if _, err := wire.ReadFrame(bufio.NewReader(raw), nil, &f); err != nil {
		t.Fatalf("reading error frame: %v", err)
	}
	if f.Type != wire.TypeError {
		t.Fatalf("frame type %d, want Error", f.Type)
	}
	if got := s.Stats().ProtocolErrors; got == 0 {
		t.Fatal("protocol error not counted")
	}
}

func TestHTTPSidecar(t *testing.T) {
	eng := testEngine(t)
	ms, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Registry().CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: eng, HTTPAddr: "127.0.0.1:0"})
	base := "http://" + s.HTTPAddr().String()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d", code)
	}
	_, body := get("/stats")
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/stats is not JSON: %v\n%s", err, body)
	}
	if st.State != "serving" {
		t.Fatalf("/stats state %q, want serving", st.State)
	}
	// What keeping the epoch cost, under the tier that kept it: the base
	// checkpoint's size and time, and the tier's breaker position.
	_, stored, err := ms.Latest()
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := st.Scale.Registries[core.DefaultRegistry]
	if !ok {
		t.Fatalf("/stats has no %q registry block:\n%s", core.DefaultRegistry, body)
	}
	if rs.Checkpoints != 1 || rs.LastCheckpointBytes != int64(len(stored)) || rs.CheckpointNanos <= 0 {
		t.Fatalf("/stats reports %d checkpoints, last %d bytes (the file has %d), %d ns", rs.Checkpoints, rs.LastCheckpointBytes, len(stored), rs.CheckpointNanos)
	}
	if rs.Robustness.Breaker != "closed" {
		t.Fatalf("/stats reports breaker %q, want closed", rs.Robustness.Breaker)
	}
	if strings.Contains(body, "LastErr") || strings.Contains(body, "LastCheckpointErr") {
		t.Fatalf("/stats encodes the registry's error fields:\n%s", body)
	}
	// Readiness flips the moment the drain starts — before connections
	// close — so load balancers stop routing first. Liveness holds.
	s.state.Store(stateDraining)
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", code)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", code)
	}
	s.state.Store(stateServing) // restore for the cleanup drain
}

// driveLoad runs n concurrent tenant clients that submit single-query
// frames with steady virtual spacing until the server errors them out
// (drain) or stop closes. Returns after every client exits.
func driveLoad(addr string, n int, stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				opts := testClientOptions()
				opts.Tenant = fmt.Sprintf("tenant-%d", w)
				opts.DialAttempts = 2
				c, err := Dial(addr, opts)
				if err != nil {
					return // listener gone: the drain has begun
				}
				q := []wire.Query{{}}
				for i := 0; i < 200; i++ {
					q[0] = wire.Query{Template: uint32(i % 4), Tag: uint32(i)}
					_, _, draining, err := c.Submit(q, time.Duration(i)*gap, 0)
					if err != nil || draining {
						break
					}
				}
				c.Finish() // best-effort: the server may already be gone
				c.Close()
			}
		}(w)
	}
	return &wg
}

// waitStats polls the server's counters until cond holds or the
// deadline passes.
func waitStats(t *testing.T, s *Server, d time.Duration, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("stats condition not reached in %v: %+v", d, s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainExactlyOnce is the SIGTERM-drain invariant under load (and
// under -race in CI): Shutdown mid-burst must flush every in-flight
// stream so each admitted arrival completes exactly once, checkpoint
// the registry, and leave the store warm-startable — a fresh engine
// built from it schedules a probe stream bit-identically to the
// original.
func TestDrainExactlyOnce(t *testing.T) {
	base := testModel(t)
	dir := t.TempDir()
	ms, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewOnlineScheduler(base, core.DefaultOnlineOptions())
	if err := eng.Registry().CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: eng, DrainGrace: 10 * time.Second})
	stop := make(chan struct{})
	wg := driveLoad(s.Addr().String(), 4, stop)

	// Let real load reach the engine, then pull the plug mid-burst.
	waitStats(t, s, 10*time.Second, func(st Stats) bool { return st.Admitted >= 40 })
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if st.State != "stopped" {
		t.Fatalf("state %q after drain", st.State)
	}
	if st.Admitted == 0 || st.Admitted != st.Completed {
		t.Fatalf("admitted %d != completed %d: arrivals lost or duplicated across the drain", st.Admitted, st.Completed)
	}
	select {
	case <-s.Done():
	default:
		t.Fatal("Done() not closed after drain")
	}

	// The store warm-starts bit-identically: a reopened store serves the
	// same latest payload, and an engine built from it schedules a probe
	// stream exactly like the original engine.
	lin1, data1, err := ms.Latest()
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lin2, data2, err := ms2.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if lin1.Epoch != lin2.Epoch || !bytes.Equal(data1, data2) {
		t.Fatal("reopened store diverges from the drained store")
	}
	eng2, err := core.NewOnlineSchedulerFromStore(ms2, core.DefaultOnlineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := probeStream(t, eng).Fingerprint(), probeStream(t, eng2).Fingerprint(); a != b {
		t.Fatalf("warm-started engine diverges:\noriginal:   %s\nwarm-start: %s", a, b)
	}
}

// probeStream drives a fixed in-process arrival sequence and returns
// its result; two engines serving the same model must agree on it
// bit-for-bit.
func probeStream(t *testing.T, eng *core.OnlineScheduler) *core.OnlineResult {
	t.Helper()
	clk := &core.SimClock{}
	st := eng.NewStream(clk)
	for i := 0; i < 12; i++ {
		clk.Advance(time.Duration(i) * gap)
		q := workload.Query{TemplateID: i % 4, Tag: i}
		if err := st.Submit(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	res := st.Finish()
	st.Close()
	return res
}

// TestChaosAcceptance is the PR's chaos gate under one seed: stalled
// and dropped connections at the listener, overload shedding at the
// token bucket, and a SIGTERM drain mid-burst — with zero
// admitted-arrival loss, a clean exit, and a store that warm-starts
// and serves.
func TestChaosAcceptance(t *testing.T) {
	base := testModel(t)
	dir := t.TempDir()
	ms, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewOnlineScheduler(base, core.DefaultOnlineOptions())
	if err := eng.Registry().CheckpointTo(ms); err != nil {
		t.Fatal(err)
	}
	spec := chaos.Spec{
		Seed: 1302,
		Net: chaos.NetFaultSpec{
			DropRate:  0.25,
			StallRate: 0.25,
			StallFor:  5 * time.Millisecond,
			MinBytes:  32,
			MaxBytes:  256,
		},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{
		Engine:       eng,
		Listener:     spec.WrapListener(ln),
		AdmitRate:    200,
		AdmitBurst:   20,
		ReadTimeout:  2 * time.Second,
		WriteTimeout: 2 * time.Second,
		DrainGrace:   10 * time.Second,
	})
	stop := make(chan struct{})
	wg := driveLoad(ln.Addr().String(), 6, stop)

	// Wait for the scenario to actually bite: load admitted, overload
	// shed, and enough connections for the fault fates to have fired.
	waitStats(t, s, 20*time.Second, func(st Stats) bool {
		return st.Admitted >= 100 && st.Shed > 0 && st.AcceptedConns >= 8
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain under chaos: %v", err)
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if st.Admitted != st.Completed {
		t.Fatalf("admitted %d != completed %d under chaos: admitted arrivals lost", st.Admitted, st.Completed)
	}
	if st.Shed == 0 {
		t.Fatal("overload never shed; the scenario did not exercise admission control")
	}
	// Dropped connections force reconnects: accepted connections must
	// exceed the tenant count for the fault fates to have fired.
	if st.AcceptedConns <= 6 {
		t.Fatalf("accepted_conns = %d: no connection faults fired", st.AcceptedConns)
	}

	// The drained store warm-starts and serves.
	ms2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2, err := core.NewOnlineSchedulerFromStore(ms2, core.DefaultOnlineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := probeStream(t, eng2).Check(12); err != nil {
		t.Fatalf("warm-started engine: %v", err)
	}
}

// memConn is a net.Conn that reads from src and discards writes and
// deadlines: the allocation pin's socket.
type memConn struct{ src *bytes.Reader }

func (c memConn) Read(p []byte) (int, error)       { return c.src.Read(p) }
func (memConn) Write(p []byte) (int, error)        { return len(p), nil }
func (memConn) Close() error                       { return nil }
func (memConn) LocalAddr() net.Addr                { return nil }
func (memConn) RemoteAddr() net.Addr               { return nil }
func (memConn) SetDeadline(t time.Time) error      { return nil }
func (memConn) SetReadDeadline(t time.Time) error  { return nil }
func (memConn) SetWriteDeadline(t time.Time) error { return nil }

// TestNetArrivalSteadyStateAllocFree pins the engine's 0 allocs/arrival
// invariant through the network decode path: deadline arm → socket read →
// frame decode → admission → virtual clock advance → SubmitDeadline → ack
// encode → deadline arm → flush, all on the connection's reused buffers
// (one frame per socket read, so every arrival arms both deadlines — the
// path's worst case). Mirrors core's
// TestOnlineArrivalSteadyStateAllocFree on the wire side.
func TestNetArrivalSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	eng := testEngine(t)
	s, err := New(Config{Engine: eng, Addr: "unused", AdmitRate: 1e9, AdmitBurst: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	clk := &core.SimClock{}
	stream, err := eng.NewStreamOn(core.DefaultRegistry, clk)
	if err != nil {
		t.Fatal(err)
	}
	stream.Reserve(300)
	src := bytes.NewReader(nil)
	tc := &timedConn{c: memConn{src}, readTimeout: time.Second, writeTimeout: time.Second, srv: s}
	cn := &conn{
		tc:     tc,
		br:     bufio.NewReaderSize(tc, 64<<10),
		bw:     bufio.NewWriterSize(tc, 64<<10),
		buf:    make([]byte, 0, 4096),
		out:    make([]byte, 0, 256),
		stream: stream,
		clock:  clk,
	}
	frameBuf := make([]byte, 0, 256)
	q := []wire.Query{{}}
	i := 0
	arrival := func() error {
		q[0] = wire.Query{Template: uint32(i % 4), Tag: uint32(i)}
		frame, err := wire.AppendSubmit(frameBuf[:0], uint32(i+1), (time.Duration(i) * gap).Microseconds(), 0, q)
		if err != nil {
			return err
		}
		frameBuf = frame
		src.Reset(frame)
		if cn.buf, err = tc.readFrame(cn.br, cn.buf, &cn.f); err != nil {
			return err
		}
		i++
		return s.handleSubmit(cn)
	}
	// Warm up past pool growth, tag-table growth, and the first VM
	// rentals; then every arrival must be allocation-free.
	for n := 0; n < 130; n++ {
		if err := arrival(); err != nil {
			t.Fatalf("warmup arrival %d: %v", n, err)
		}
	}
	allocs := testing.AllocsPerRun(60, func() {
		if err := arrival(); err != nil {
			t.Fatalf("measured arrival: %v", err)
		}
	})
	if allocs >= 1 {
		t.Fatalf("network arrival path allocates %.1f times per arrival, want 0", allocs)
	}
	res := stream.Finish()
	if err := res.Check(i); err != nil {
		t.Fatal(err)
	}
	stream.Close()
}
