package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"wisedb/internal/wire"
)

// shortTimeout is the ReadTimeout / Options.Timeout of the timeout
// tests: long enough that a loaded CI box schedules the handler well
// inside it, short enough that the tests stay fast.
const shortTimeout = 150 * time.Millisecond

// rawHello dials s without the Client, completes the handshake, and
// returns the socket with a reader positioned after the Welcome.
func rawHello(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	raw, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	hello, err := wire.AppendHello(nil, wire.ClockVirtual, "", "raw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(hello); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	var f wire.Frame
	if _, err := wire.ReadFrame(br, nil, &f); err != nil || f.Type != wire.TypeWelcome {
		t.Fatalf("welcome: type %d, err %v", f.Type, err)
	}
	return raw, br
}

// submitFrame encodes the i-th single-query steady-state Submit.
func submitFrame(t *testing.T, dst []byte, i int) []byte {
	t.Helper()
	q := []wire.Query{{Template: uint32(i % 4), Tag: uint32(i)}}
	frame, err := wire.AppendSubmit(dst, uint32(i+1), (time.Duration(i) * gap).Microseconds(), 0, q)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// awaitHangup reads raw to the end — discarding whatever the server
// still sent — and returns the instant the server closed it.
func awaitHangup(raw net.Conn) time.Time {
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	io.Copy(io.Discard, raw)
	return time.Now()
}

// expectFlushed asserts what a connection the server gave up on leaves
// behind: the handler gone and its stream flushed exactly once.
func expectFlushed(t *testing.T, s *Server, admitted int64) {
	t.Helper()
	if st := s.Stats(); st.ActiveConns != 0 || st.Admitted != admitted || st.Completed != admitted {
		t.Fatalf("after hangup: active=%d admitted=%d completed=%d, want 0/%d/%d",
			st.ActiveConns, st.Admitted, st.Completed, admitted, admitted)
	}
}

// TestIdleConnectionTimesOut: a peer silent for ReadTimeout is treated
// as gone — the handler exits and the stream's admitted work completes.
func TestIdleConnectionTimesOut(t *testing.T) {
	s := startServer(t, Config{ReadTimeout: shortTimeout})
	c, err := Dial(s.Addr().String(), testClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := []wire.Query{{}}
	for i := 0; i < 5; i++ {
		q[0] = wire.Query{Template: uint32(i % 4), Tag: uint32(i)}
		if _, _, _, err := c.Submit(q, time.Duration(i)*gap, 0); err != nil {
			t.Fatal(err)
		}
	}
	idleSince := time.Now()
	waitStats(t, s, 2*shortTimeout, func(st Stats) bool { return st.ActiveConns == 0 })
	if idle := time.Since(idleSince); idle < shortTimeout/2 {
		t.Fatalf("handler exited %v into a %v ReadTimeout", idle, shortTimeout)
	}
	expectFlushed(t, s, 5)
}

// TestSlowLorisCutOff: ReadTimeout bounds the wait for a whole frame.
// A peer dripping one byte per ReadTimeout/3 makes progress on every
// socket read and must still be cut off about ReadTimeout after the
// handler started waiting, not kept alive until the frame completes
// (49 bytes: sixteen ReadTimeouts).
func TestSlowLorisCutOff(t *testing.T) {
	s := startServer(t, Config{ReadTimeout: shortTimeout})
	raw, _ := rawHello(t, s)
	frame := submitFrame(t, nil, 0)
	hungUp := make(chan time.Time, 1)
	go func() { hungUp <- awaitHangup(raw) }()
	start := time.Now()
	var end time.Time
drip:
	for i := range frame {
		if _, err := raw.Write(frame[i : i+1]); err != nil {
			break // the server hung up on us
		}
		select {
		case end = <-hungUp:
			break drip
		case <-time.After(shortTimeout / 3):
		}
	}
	if end.IsZero() {
		end = <-hungUp
	}
	if d := end.Sub(start); d > 2*shortTimeout {
		t.Fatalf("dripping peer kept alive for %v, ReadTimeout is %v", d, shortTimeout)
	}
	expectFlushed(t, s, 0)
	if st := s.Stats(); st.Frames != 0 {
		t.Fatalf("%d frames counted from a peer that never completed one", st.Frames)
	}
}

// TestBurstThenSilence: 64 complete frames in one socket write are all
// served from the read buffer and acked; the silence after them times
// out like any idle connection.
func TestBurstThenSilence(t *testing.T) {
	s := startServer(t, Config{ReadTimeout: shortTimeout})
	raw, br := rawHello(t, s)
	const burst = 64
	var frames []byte
	for i := 0; i < burst; i++ {
		frames = submitFrame(t, frames, i)
	}
	if _, err := raw.Write(frames); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	var f wire.Frame
	for i := 0; i < burst; i++ {
		if _, err := wire.ReadFrame(br, nil, &f); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if f.Type != wire.TypeAck || f.Seq != uint32(i+1) || f.Accepted != 1 {
			t.Fatalf("ack %d: type %d seq %d accepted %d", i, f.Type, f.Seq, f.Accepted)
		}
	}
	idleSince := time.Now()
	if d := awaitHangup(raw).Sub(idleSince); d > 2*shortTimeout {
		t.Fatalf("idle after the burst for %v, ReadTimeout is %v", d, shortTimeout)
	}
	expectFlushed(t, s, burst)
}

// TestClientReadAckTimesOut: Options.Timeout bounds the client's wait
// for an ack from a server that has gone silent.
func TestClientReadAckTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		br := bufio.NewReader(peer)
		var f wire.Frame
		if _, err := wire.ReadFrame(br, nil, &f); err != nil {
			return
		}
		peer.Write(wire.AppendWelcome(nil, 4, wire.MaxBatch))
		for { // swallow Submits, never ack
			if _, err := wire.ReadFrame(br, nil, &f); err != nil {
				return
			}
		}
	}()
	opts := testClientOptions()
	opts.Timeout = shortTimeout
	opts.DialAttempts = 1
	c, err := Dial(ln.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]wire.Query{{}}, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, _, err = c.ReadAck()
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("ReadAck against a silent server: %v, want a timeout", err)
	}
	if d := time.Since(start); d > 2*shortTimeout {
		t.Fatalf("ReadAck timed out after %v, Options.Timeout is %v", d, shortTimeout)
	}
	c.Close()
	<-peerDone
}

// countingListener wraps every accepted connection in a countingConn —
// the Config.Listener seam observing what the handler does to its socket.
type countingListener struct {
	net.Listener
	n *connCounts
}

type connCounts struct {
	reads, writes, readArms, writeArms atomic.Int64
	// onReadArm, when set, runs in place of the n-th SetReadDeadline
	// (1-based); set performs the real call.
	onReadArm func(n int64, set func() error) error
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: l.n}, nil
}

type countingConn struct {
	net.Conn
	n *connCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.n.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) SetReadDeadline(t time.Time) error {
	n := c.n.readArms.Add(1)
	set := func() error { return c.Conn.SetReadDeadline(t) }
	if c.n.onReadArm != nil {
		return c.n.onReadArm(n, set)
	}
	return set()
}

func (c *countingConn) SetWriteDeadline(t time.Time) error {
	c.n.writeArms.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

func startCountingServer(t *testing.T, cfg Config, n *connCounts) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Listener = countingListener{Listener: ln, n: n}
	return startServer(t, cfg)
}

// TestDeadlinesArmedPerSocketOperation pins the mechanism: a deadline is
// armed when the handler goes to the socket, never for a frame served
// from the read buffer or an ack parked in the write buffer. Under a
// pipelined window most frames do neither, so arms track socket
// operations, not frames.
func TestDeadlinesArmedPerSocketOperation(t *testing.T) {
	var n connCounts
	s := startCountingServer(t, Config{}, &n)
	c, err := Dial(s.Addr().String(), testClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const arrivals = 10000
	if err := sendPipelined(c, arrivals, 64); err != nil {
		t.Fatal(err)
	}
	res, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != arrivals {
		t.Fatalf("completed %d of %d arrivals", res.Completed, arrivals)
	}
	arms := n.readArms.Load() + n.writeArms.Load()
	ops := n.reads.Load() + n.writes.Load()
	t.Logf("%d arrivals: %d socket reads, %d socket writes, %d read arms, %d write arms",
		arrivals, n.reads.Load(), n.writes.Load(), n.readArms.Load(), n.writeArms.Load())
	if arms > ops+4 {
		t.Fatalf("%d deadline arms for %d socket operations: a deadline is being armed per frame", arms, ops)
	}
	if ops >= arrivals/4 {
		t.Fatalf("%d socket operations for %d pipelined arrivals: the window is not batching, the pin above proves nothing", ops, arrivals)
	}
}

// TestDrainNoticedBetweenFrames: a drain nudge that lands while the
// handler is arming the deadline for its next socket read — after the
// previous frame, before blocking — must still end the connection at
// once. The handler's own arm overwrites the nudge's immediate
// deadline, so it has to re-check the drain after arming; without the
// re-check the connection sits until the peer speaks or DrainGrace
// force-closes it.
func TestDrainNoticedBetweenFrames(t *testing.T) {
	var n connCounts
	var s *Server
	shutdownErr := make(chan error, 1)
	nudged := make(chan struct{})
	// Arm 1 waits for the Hello, arms 2 and 3 for the two Submits; arm 4
	// is the handler going back to the socket with nothing in flight.
	const betweenFrames = 4
	n.onReadArm = func(call int64, set func() error) error {
		switch call {
		case betweenFrames:
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				shutdownErr <- s.Shutdown(ctx)
			}()
			<-nudged // the nudge has set its immediate deadline ...
			return set()
		case betweenFrames + 1:
			err := set()
			close(nudged) // ... which the arm in progress now overwrites
			return err
		}
		return set()
	}
	s = startCountingServer(t, Config{ReadTimeout: 30 * time.Second, DrainGrace: 5 * time.Second}, &n)
	c, err := Dial(s.Addr().String(), testClientOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	q := []wire.Query{{}}
	start := time.Now()
	for i := 0; i < 2; i++ {
		q[0] = wire.Query{Template: uint32(i), Tag: uint32(i)}
		if _, _, _, err := c.Submit(q, time.Duration(i)*gap, 0); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Shutdown never returned")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("drain took %v: the handler slept through the nudge until DrainGrace force-closed it", d)
	}
	if st := s.Stats(); st.Admitted != 2 || st.Completed != 2 {
		t.Fatalf("admitted=%d completed=%d across the drain, want 2/2", st.Admitted, st.Completed)
	}
	// The handler told the silent peer it was draining before hanging up.
	if c.buf, err = wire.ReadFrame(c.br, c.buf, &c.f); err != nil || c.f.Type != wire.TypeResult || !c.f.Draining || c.f.Completed != 2 {
		t.Fatalf("frame after drain: type %d draining %v completed %d, err %v", c.f.Type, c.f.Draining, c.f.Completed, err)
	}
}
