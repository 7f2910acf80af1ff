package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"wisedb/internal/core"
	"wisedb/internal/wire"
)

// Options configures a client connection.
type Options struct {
	// Registry names the server-side registry to bind the stream to
	// ("" = the default registry).
	Registry string
	// Tenant is an identifying label carried in the handshake.
	Tenant string
	// Clock selects wire.ClockWall (server stamps arrivals with real
	// time) or wire.ClockVirtual (Submit's arrival instant drives the
	// stream's virtual clock — replay and load-generation mode).
	Clock uint8
	// Retry is the jittered-backoff schedule for dial retries
	// (core/robust.go's policy; zero value = defaults).
	Retry core.RetryPolicy
	// DialAttempts bounds connection attempts (first try included).
	// Default 4.
	DialAttempts int
	// Timeout bounds each network operation: every socket write (a
	// Flush, or a Send spilling a full buffer) and the wait for each
	// frame from the moment the client first has to go to the socket
	// for it. A frame already in the read buffer and a Send that only
	// queues wait on nothing. Default 30s.
	Timeout time.Duration
	// Seed feeds the deterministic retry jitter.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.DialAttempts <= 0 {
		o.DialAttempts = 4
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// Result is a stream's final accounting as reported by the server.
type Result struct {
	Cost      float64
	Penalty   float64
	Completed uint32
	Shed      uint32
	VMs       uint32
	Epoch     uint64
	Draining  bool
}

// Client is one connection to the serving daemon — one tenant stream.
// It supports pipelining: Send queues Submit frames into a buffered
// writer, Flush pushes them out, ReadAck consumes acknowledgements;
// the load generator keeps a window of frames in flight to amortize
// syscalls, and only the calls that reach the socket arm a deadline
// (timedConn). A Client is single-goroutine, like the stream it fronts.
type Client struct {
	conn net.Conn
	tc   *timedConn // conn under Options.Timeout; br and bw go through it
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte
	out  []byte
	f    wire.Frame

	seq     uint32
	pending int // Submit frames sent but not yet acked

	// Templates and MaxBatch echo the server's Welcome.
	Templates uint32
	MaxBatch  uint32
}

// Dial connects to the daemon with jittered-backoff retries: each
// failed attempt (refused, timed out, rejected at the connection cap)
// backs off per opts.Retry.RetryDelay before the next, so a thundering
// herd of restarting clients spreads itself out.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	var lastErr error
	for attempt := 0; attempt < opts.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(opts.Retry.RetryDelay(attempt, opts.Seed))
		}
		conn, err := net.DialTimeout("tcp", addr, opts.Timeout)
		if err != nil {
			lastErr = err
			continue
		}
		c, err := handshake(conn, opts)
		if err != nil {
			conn.Close()
			lastErr = err
			if errors.Is(err, wire.ErrVersion) {
				break // a version mismatch will not heal by retrying
			}
			continue
		}
		return c, nil
	}
	return nil, fmt.Errorf("server: dial %s failed after %d attempts: %w", addr, opts.DialAttempts, lastErr)
}

func handshake(conn net.Conn, opts Options) (*Client, error) {
	tc := &timedConn{c: conn, readTimeout: opts.Timeout, writeTimeout: opts.Timeout}
	c := &Client{
		conn: conn,
		tc:   tc,
		br:   bufio.NewReaderSize(tc, 64<<10),
		bw:   bufio.NewWriterSize(tc, 64<<10),
		buf:  make([]byte, 0, 4096),
		out:  make([]byte, 0, 4096),
	}
	hello, err := wire.AppendHello(c.out[:0], opts.Clock, opts.Registry, opts.Tenant)
	if err != nil {
		return nil, err
	}
	if _, err := c.bw.Write(hello); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	if c.buf, err = tc.readFrame(c.br, c.buf, &c.f); err != nil {
		return nil, fmt.Errorf("welcome: %w", err)
	}
	switch c.f.Type {
	case wire.TypeWelcome:
		c.Templates = c.f.Templates
		c.MaxBatch = c.f.MaxBatch
		return c, nil
	case wire.TypeError:
		return nil, fmt.Errorf("server rejected connection: %s", c.f.Message)
	default:
		return nil, fmt.Errorf("expected Welcome, got frame type %d", c.f.Type)
	}
}

// Send queues one Submit frame (no flush): queries arriving at arrival
// (virtual clock mode; ignored in wall mode) with a placement deadline
// (0 = server default).
func (c *Client) Send(queries []wire.Query, arrival, deadline time.Duration) error {
	c.seq++
	frame, err := wire.AppendSubmit(c.out[:0], c.seq, arrival.Microseconds(), deadline.Microseconds(), queries)
	if err != nil {
		return err
	}
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	c.pending++
	return nil
}

// Flush pushes queued frames to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// ReadAck consumes one acknowledgement: how many queries the server
// admitted and shed, and whether it is draining (the client should
// Finish soon).
func (c *Client) ReadAck() (accepted, shed int, draining bool, err error) {
	if c.buf, err = c.tc.readFrame(c.br, c.buf, &c.f); err != nil {
		return 0, 0, false, err
	}
	switch c.f.Type {
	case wire.TypeAck:
		c.pending--
		return int(c.f.Accepted), int(c.f.Shed), c.f.Draining, nil
	case wire.TypeError:
		return 0, 0, false, fmt.Errorf("server error: %s", c.f.Message)
	default:
		return 0, 0, false, fmt.Errorf("expected Ack, got frame type %d", c.f.Type)
	}
}

// Submit is the synchronous convenience: Send + Flush + ReadAck.
func (c *Client) Submit(queries []wire.Query, arrival, deadline time.Duration) (accepted, shed int, draining bool, err error) {
	if err := c.Send(queries, arrival, deadline); err != nil {
		return 0, 0, false, err
	}
	if err := c.Flush(); err != nil {
		return 0, 0, false, err
	}
	return c.ReadAck()
}

// Finish closes the stream: outstanding acks are drained, the Finish
// frame is sent, and the server's Result comes back. The connection is
// done afterwards (Close releases it).
func (c *Client) Finish() (Result, error) {
	frame := wire.AppendFinish(c.out[:0])
	if _, err := c.bw.Write(frame); err != nil {
		return Result{}, err
	}
	if err := c.Flush(); err != nil {
		return Result{}, err
	}
	for {
		var err error
		if c.buf, err = c.tc.readFrame(c.br, c.buf, &c.f); err != nil {
			return Result{}, err
		}
		switch c.f.Type {
		case wire.TypeAck:
			c.pending-- // a straggler ack from the pipeline window
		case wire.TypeResult:
			return Result{
				Cost:      c.f.Cost,
				Penalty:   c.f.Penalty,
				Completed: c.f.Completed,
				Shed:      c.f.ShedTotal,
				VMs:       c.f.VMs,
				Epoch:     c.f.Epoch,
				Draining:  c.f.Draining,
			}, nil
		case wire.TypeError:
			return Result{}, fmt.Errorf("server error: %s", c.f.Message)
		default:
			return Result{}, fmt.Errorf("expected Result, got frame type %d", c.f.Type)
		}
	}
}

// Pending returns the number of unacknowledged Submit frames.
func (c *Client) Pending() int { return c.pending }

// Close releases the connection.
func (c *Client) Close() error {
	err := c.conn.Close()
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return nil
	}
	return err
}
