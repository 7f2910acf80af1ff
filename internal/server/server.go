// Package server is the wisedb network serving daemon: a TCP listener
// speaking internal/wire's length-prefixed framing on the hot arrival
// path, an HTTP sidecar for health and stats, and the robustness
// machinery every ingress needs — per-request deadlines propagated into
// placement, read/write timeouts armed where a connection actually
// touches its socket (timedConn), a max-connections cap, token-bucket
// admission control that sheds before admission, and a graceful SIGTERM
// drain that flushes in-flight streams exactly once and checkpoints
// every registry before exit.
//
// Each connection is one tenant stream (core.Stream): the handshake
// binds it to a registry, Submit frames become arrival events, and
// Finish (or drain, or disconnect) flushes it through Stream.Finish —
// so every admitted arrival completes exactly once no matter how the
// connection ends. The per-connection read loop reuses one frame, one
// read buffer, one query slice, and one write buffer, preserving the
// engine's 0 allocs/arrival invariant through the network decode path.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wisedb/internal/core"
	"wisedb/internal/wire"
	"wisedb/internal/workload"
)

// Config configures a Server. Engine is required; everything else has
// serviceable defaults.
type Config struct {
	// Engine is the serving engine connections submit into.
	Engine *core.OnlineScheduler
	// Addr is the TCP listen address (e.g. ":7070"). Ignored when
	// Listener is set.
	Addr string
	// Listener, when non-nil, is used instead of listening on Addr —
	// the seam tests and chaos fault injection wrap.
	Listener net.Listener
	// HTTPAddr is the sidecar's listen address for /healthz, /readyz,
	// and /stats. Empty disables the sidecar.
	HTTPAddr string
	// MaxConns caps concurrent connections; excess connections get an
	// Error frame and an immediate close. Default 1024.
	MaxConns int
	// ReadTimeout bounds the wait for each frame, from the moment the
	// handler first has to go to the socket for it; further socket
	// reads for the same frame do not extend it, and a frame already
	// complete in the read buffer waits on nothing. A connection idle
	// (or dripping bytes) past it is treated as gone and its stream is
	// flushed. Default 30s.
	ReadTimeout time.Duration
	// WriteTimeout bounds each socket write of a response flush.
	// Default 10s.
	WriteTimeout time.Duration
	// AdmitRate is the token-bucket refill rate in queries/sec across
	// all connections; AdmitBurst the bucket depth (default: one
	// second of rate). 0 disables admission control.
	AdmitRate  float64
	AdmitBurst int
	// DefaultDeadline is the per-request placement deadline applied
	// when a Submit frame carries none. 0 means no deadline.
	DefaultDeadline time.Duration
	// DrainGrace bounds how long Shutdown waits for in-flight
	// connections before force-closing them (their admitted work is
	// still flushed). Default 10s. The context handed to Shutdown
	// caps it further.
	DrainGrace time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 1024
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.AdmitRate > 0 && c.AdmitBurst <= 0 {
		c.AdmitBurst = int(c.AdmitRate)
		if c.AdmitBurst < 1 {
			c.AdmitBurst = 1
		}
	}
	return c
}

// Server states. The daemon moves serving → draining → stopped, once,
// in that order.
const (
	stateNew int32 = iota
	stateServing
	stateDraining
	stateStopped
)

// Server is the serving daemon. Create with New, start with Start,
// stop with Shutdown.
type Server struct {
	cfg    Config
	eng    *core.OnlineScheduler
	bucket *tokenBucket

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	state atomic.Int32
	done  chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup // accept loop + one per live connection

	// Ingress counters. Admitted counts queries passed into the
	// engine; Completed counts queries that finished through
	// Stream.Finish — at stopped state the two match unless the
	// engine itself shed (MaxBacklog under degradation).
	acceptedConns  atomic.Int64
	rejectedConns  atomic.Int64
	activeConns    atomic.Int64
	frames         atomic.Int64
	admitted       atomic.Int64
	shed           atomic.Int64
	completed      atomic.Int64
	streamsServed  atomic.Int64
	protocolErrors atomic.Int64
	drainErr       atomic.Pointer[error]
}

// New validates cfg and returns an unstarted server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.Addr == "" && cfg.Listener == nil {
		return nil, errors.New("server: Config.Addr or Config.Listener is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		eng:   cfg.Engine,
		conns: map[net.Conn]struct{}{},
		done:  make(chan struct{}),
	}
	if cfg.AdmitRate > 0 {
		s.bucket = newTokenBucket(cfg.AdmitRate, cfg.AdmitBurst)
	}
	return s, nil
}

// Start begins listening and accepting. It returns once the listeners
// are bound; serving proceeds on background goroutines until Shutdown.
func (s *Server) Start() error {
	if !s.state.CompareAndSwap(stateNew, stateServing) {
		return errors.New("server: already started")
	}
	ln := s.cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", s.cfg.Addr)
		if err != nil {
			s.state.Store(stateStopped)
			close(s.done)
			return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
		}
	}
	s.ln = ln
	if s.cfg.HTTPAddr != "" {
		if err := s.startHTTP(); err != nil {
			ln.Close()
			s.state.Store(stateStopped)
			close(s.done)
			return err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound TCP address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Done is closed when the server has fully stopped.
func (s *Server) Done() <-chan struct{} { return s.done }

func (s *Server) draining() bool { return s.state.Load() >= stateDraining }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.draining() || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (e.g. EMFILE): brief pause, go on.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if s.activeConns.Load() >= int64(s.cfg.MaxConns) {
			s.rejectedConns.Add(1)
			c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			c.Write(wire.AppendError(nil, "server at max connections"))
			c.Close()
			continue
		}
		s.acceptedConns.Add(1)
		s.activeConns.Add(1)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(c)
	}
}

// conn is the per-connection state: one stream, one set of reusable
// buffers. Everything here lives for the connection and is touched by
// its handler goroutine only.
type conn struct {
	tc     *timedConn // the socket; br and bw read and write through it
	br     *bufio.Reader
	bw     *bufio.Writer
	buf    []byte // wire read buffer
	out    []byte // wire write buffer
	f      wire.Frame
	qbuf   []workload.Query // decoded batch, converted for the engine
	stream *core.Stream
	clock  *core.SimClock // non-nil in virtual clock mode
	lastT  time.Duration  // last virtual instant (clamped monotonic)
}

// writeFrame queues an encoded frame and flushes if no further input
// is pending — batching acks under pipelining, never sitting on a
// response when the peer is waiting.
func (s *Server) writeFrame(cn *conn, frame []byte) error {
	if _, err := cn.bw.Write(frame); err != nil {
		return err
	}
	if cn.br.Buffered() == 0 {
		return cn.bw.Flush()
	}
	return nil
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	tc := &timedConn{c: c, readTimeout: s.cfg.ReadTimeout, writeTimeout: s.cfg.WriteTimeout, srv: s}
	cn := &conn{
		tc:  tc,
		br:  bufio.NewReaderSize(tc, 64<<10),
		bw:  bufio.NewWriterSize(tc, 64<<10),
		buf: make([]byte, 0, 4096),
		out: make([]byte, 0, 256),
	}
	defer func() {
		// Whatever frame ended the connection — Result, Error, parked
		// acks — reaches the peer before the stream's flush and the close.
		cn.bw.Flush()
		s.flushStream(cn)
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.activeConns.Add(-1)
		c.Close()
	}()
	if err := s.handshake(cn); err != nil {
		s.protocolErrors.Add(1)
		s.writeFrame(cn, wire.AppendError(cn.out[:0], err.Error()))
		return
	}
	s.streamsServed.Add(1)
	s.serve(cn)
}

// handshake reads the Hello, opens the tenant stream, and answers with
// a Welcome.
func (s *Server) handshake(cn *conn) error {
	var err error
	cn.buf, err = cn.tc.readFrame(cn.br, cn.buf, &cn.f)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if cn.f.Type != wire.TypeHello {
		return fmt.Errorf("expected Hello, got frame type %d", cn.f.Type)
	}
	registry := cn.f.Registry
	if registry == "" {
		registry = core.DefaultRegistry
	}
	var clock core.Clock
	if cn.f.Clock == wire.ClockVirtual {
		cn.clock = &core.SimClock{}
		clock = cn.clock
	} else {
		clock = core.NewWallClock()
	}
	stream, err := s.eng.NewStreamOn(registry, clock)
	if err != nil {
		return err
	}
	cn.stream = stream
	return s.writeFrame(cn, wire.AppendWelcome(cn.out[:0], uint32(s.eng.Templates()), wire.MaxBatch))
}

// serve is the connection's frame loop. It exits on Finish, on any
// read/write error, and on drain (the drain nudge wakes blocked reads
// via an immediate read deadline); the deferred flush and flushStream
// in handle put the last frame on the wire and guarantee the stream's
// admitted work completes exactly once on every one of those paths.
func (s *Server) serve(cn *conn) {
	for {
		var err error
		cn.buf, err = cn.tc.readFrame(cn.br, cn.buf, &cn.f)
		if err != nil {
			// Drain, disconnect, timeout, or garbage: if the peer is
			// still there and draining, tell it before hanging up.
			if wireError(err) {
				s.protocolErrors.Add(1)
				s.writeFrame(cn, wire.AppendError(cn.out[:0], err.Error()))
			} else if s.draining() {
				res := s.finishStream(cn)
				s.writeFrame(cn, resultFrame(cn.out[:0], res, true))
			}
			return
		}
		s.frames.Add(1)
		switch cn.f.Type {
		case wire.TypeSubmit:
			if err := s.handleSubmit(cn); err != nil {
				s.protocolErrors.Add(1)
				s.writeFrame(cn, wire.AppendError(cn.out[:0], err.Error()))
				return
			}
		case wire.TypeFinish:
			res := s.finishStream(cn)
			s.writeFrame(cn, resultFrame(cn.out[:0], res, s.draining()))
			return
		default:
			s.protocolErrors.Add(1)
			s.writeFrame(cn, wire.AppendError(cn.out[:0], fmt.Sprintf("unexpected frame type %d", cn.f.Type)))
			return
		}
	}
}

// handleSubmit admits what the token bucket allows, sheds the rest
// (newest last — the same newest-first-sheddable rule as the engine's
// MaxBacklog), submits with the request's placement deadline, and
// acks. This is the 0 allocs/arrival hot path: the query slice, the
// ack buffer, and the frame are all connection-owned and reused.
func (s *Server) handleSubmit(cn *conn) error {
	n := len(cn.f.Queries)
	admit := n
	if s.bucket != nil {
		admit = s.bucket.take(n)
	}
	shedN := n - admit
	if shedN > 0 {
		cn.stream.Shed(shedN)
		s.shed.Add(int64(shedN))
	}
	if admit > 0 {
		cn.qbuf = cn.qbuf[:0]
		for i := 0; i < admit; i++ {
			cn.qbuf = append(cn.qbuf, workload.Query{TemplateID: int(cn.f.Queries[i].Template), Tag: int(cn.f.Queries[i].Tag)})
		}
		if cn.clock != nil {
			t := time.Duration(cn.f.ArrivalMicros) * time.Microsecond
			if t < cn.lastT {
				t = cn.lastT // the stream clock is monotonic; clients may lag
			}
			cn.lastT = t
			cn.clock.Advance(t)
		}
		deadline := s.cfg.DefaultDeadline
		if cn.f.DeadlineMicros > 0 {
			deadline = time.Duration(cn.f.DeadlineMicros) * time.Microsecond
		}
		if err := cn.stream.SubmitDeadline(context.Background(), deadline, cn.qbuf...); err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		s.admitted.Add(int64(admit))
	}
	return s.writeFrame(cn, wire.AppendAck(cn.out[:0], cn.f.Seq, uint16(admit), uint16(shedN), s.draining()))
}

// finishStream flushes the connection's stream exactly once and
// returns its result (nil if already flushed or never opened).
func (s *Server) finishStream(cn *conn) *core.OnlineResult {
	if cn.stream == nil {
		return nil
	}
	res := cn.stream.Finish()
	cn.stream.Close()
	cn.stream = nil
	s.completed.Add(int64(len(res.Outcomes)))
	return res
}

// flushStream is finishStream for abnormal exits: admitted work is
// completed and counted even when the connection died mid-stream.
func (s *Server) flushStream(cn *conn) {
	if cn.stream != nil {
		s.finishStream(cn)
	}
}

// resultFrame renders a stream result (nil allowed) as a Result frame.
func resultFrame(dst []byte, res *core.OnlineResult, draining bool) []byte {
	if res == nil {
		return wire.AppendResult(dst, 0, 0, 0, 0, 0, 0, draining)
	}
	return wire.AppendResult(dst, res.Cost, res.Penalty,
		uint32(len(res.Outcomes)), uint32(res.ShedArrivals), uint32(res.VMsRented),
		res.FinalEpoch, draining)
}

// wireError reports whether err is a protocol-level decode failure (as
// opposed to I/O: timeouts, resets, EOF).
func wireError(err error) bool {
	return errors.Is(err, wire.ErrTooLarge) || errors.Is(err, wire.ErrTruncated) ||
		errors.Is(err, wire.ErrCorrupt) || errors.Is(err, wire.ErrUnknownType) ||
		errors.Is(err, wire.ErrVersion)
}

// Shutdown drains the daemon: stop accepting, wake and finish every
// in-flight connection (flushing each stream's admitted work exactly
// once), checkpoint every registry via Drain, and stop the sidecar.
// ctx and Config.DrainGrace bound the wait for connections — past
// either, connections are force-closed, which still flushes their
// streams. Safe to call more than once; later calls wait for the
// first to finish.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.state.CompareAndSwap(stateServing, stateDraining) {
		// Already draining (or stopped, or never started): wait it out.
		select {
		case <-s.done:
			if p := s.drainErr.Load(); p != nil {
				return *p
			}
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.ln.Close()
	s.nudgeConns()
	handlersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(handlersDone)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-handlersDone:
	case <-ctx.Done():
		s.closeConns()
		<-handlersDone
	case <-grace.C:
		s.closeConns()
		<-handlersDone
	}
	// Every stream is flushed; quiesce and durably checkpoint each
	// registry. A kill landing anywhere in here leaves the store at
	// its last two-rename commit — warm-startable by construction.
	var err error
	for _, name := range s.eng.RegistryNames() {
		if r := s.eng.RegistryNamed(name); r != nil {
			if e := r.Drain(); e != nil && err == nil {
				err = fmt.Errorf("server: drain registry %q: %w", name, e)
			}
		}
	}
	s.stopHTTP()
	if err != nil {
		s.drainErr.Store(&err)
	}
	s.state.Store(stateStopped)
	close(s.done)
	return err
}

// nudgeConns wakes every blocked read so handlers notice the drain.
func (s *Server) nudgeConns() {
	now := time.Now()
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(now)
	}
	s.mu.Unlock()
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}
