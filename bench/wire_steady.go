package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"wisedb/internal/core"
	"wisedb/internal/server"
	"wisedb/internal/wire"
	"wisedb/internal/workload"
)

const (
	spClientSend    = "server.client_send"
	spClientFlush   = "server.client_flush"
	spClientReadAck = "server.client_readack"

	// wireGap is the virtual time between arrivals of wire-steady: longer
	// than any query runs, so every batch is one fresh query.
	wireGap = 7 * time.Minute
)

// wireInstance is wire-steady: an in-process daemon on loopback and one
// client connection at a time, each a tenant stream in virtual-clock mode.
type wireInstance struct {
	in      *inputs
	eng     *core.OnlineScheduler
	srv     *server.Server
	cycles  []cycle
	startMS float64
}

// startServer builds the engine `wisedb serve` builds and starts a daemon on
// an ephemeral loopback port.
func startServer(in *inputs) (*core.OnlineScheduler, *server.Server, float64, error) {
	adv, err := core.NewAdvisor(in.env, in.sz.serving)
	if err != nil {
		return nil, nil, 0, err
	}
	model, err := adv.Train(in.goal)
	if err != nil {
		return nil, nil, 0, err
	}
	eng := core.NewOnlineScheduler(model, serveOptions())
	t0 := time.Now()
	srv, err := server.New(server.Config{Engine: eng, Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, nil, 0, err
	}
	if err := srv.Start(); err != nil {
		return nil, nil, 0, err
	}
	return eng, srv, sinceMS(t0), nil
}

func stopServer(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

func setupWire(in *inputs) (instance, error) {
	eng, srv, startMS, err := startServer(in)
	if err != nil {
		return nil, err
	}
	w := &wireInstance{in: in, eng: eng, srv: srv, startMS: startMS}
	w.cycles = in.cycles((in.sz.wireConns+23)/24, false)[:in.sz.wireConns]
	// One window of arrivals proves the daemon serves before set-up ends.
	if _, _, err := w.connection(nil, nil, w.cycles[0], 0, in.sz.wireWindow, nil); err != nil {
		stopServer(srv)
		return nil, err
	}
	return w, nil
}

// connection drives one client connection the way `wisedb load` does: a
// window of Submit frames in flight, flushed when full and drained to half.
// It returns the server's result and the number of arrivals the acks
// reported shed. atFullest, when not nil, runs after the last ack and before
// Finish.
func (w *wireInstance) connection(tr *tracer, lat *[]int64, c cycle, op uint32, arrivals int, atFullest func()) (server.Result, int, error) {
	cl, err := server.Dial(w.srv.Addr().String(), server.Options{
		Clock:  wire.ClockVirtual,
		Tenant: fmt.Sprintf("bench-%d", op),
		Retry:  core.DefaultRetryPolicy(),
	})
	if err != nil {
		return server.Result{}, 0, err
	}
	defer cl.Close()

	window := w.in.sz.wireWindow
	// sent is a FIFO ring of Send instants: acks arrive in submit order.
	sent := make([]time.Time, window+1)
	head, tail := 0, 0
	shed := 0
	readAck := func() error {
		sp := tr.begin(spClientReadAck, -1, op)
		_, s, _, err := cl.ReadAck()
		tr.end(sp)
		if err != nil {
			return err
		}
		shed += s
		if lat != nil {
			*lat = append(*lat, int64(time.Since(sent[head])))
		}
		head = (head + 1) % len(sent)
		return nil
	}
	flush := func() error {
		sp := tr.begin(spClientFlush, -1, op)
		err := cl.Flush()
		tr.end(sp)
		return err
	}
	q := []wire.Query{{}}
	for i := 0; i < arrivals; i++ {
		q[0] = wire.Query{Template: uint32(c[i%numTemplates]), Tag: uint32(i)}
		sent[tail] = time.Now()
		tail = (tail + 1) % len(sent)
		sp := tr.begin(spClientSend, -1, op)
		err := cl.Send(q, time.Duration(i)*wireGap, 0)
		tr.end(sp)
		if err != nil {
			return server.Result{}, shed, err
		}
		if cl.Pending() >= window {
			if err := flush(); err != nil {
				return server.Result{}, shed, err
			}
			for cl.Pending() > window/2 {
				if err := readAck(); err != nil {
					return server.Result{}, shed, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return server.Result{}, shed, err
	}
	for cl.Pending() > 0 {
		if err := readAck(); err != nil {
			return server.Result{}, shed, err
		}
	}
	if atFullest != nil {
		atFullest()
	}
	res, err := cl.Finish()
	return res, shed, err
}

func (w *wireInstance) round(tr *tracer, lat *[]int64) (roundResult, error) {
	n := w.in.sz.wireArrivals
	rr := roundResult{obs: map[string]float64{}}
	fp := newFingerprinter()
	ck := &checker{}
	before := w.srv.Stats()
	var err error
	rr.counters, err = measure(func() error {
		for i, c := range w.cycles {
			res, shed, err := w.connection(tr, lat, c, uint32(i), n, nil)
			if err != nil {
				return fmt.Errorf("connection %d: %w", i, err)
			}
			rr.ops += n
			rr.failed += int(res.Shed)
			rr.cost += res.Cost
			rr.queries += n
			fp.f64(res.Cost)
			fp.u64(uint64(res.VMs))
			fp.u64(uint64(res.Completed))
			if int(res.Completed)+int(res.Shed) != n || int(res.Shed) != shed {
				ck.failf("connection %d: %d completed + %d shed (%d shed in acks) of %d sent", i, res.Completed, res.Shed, shed, n)
			}
		}
		return nil
	})
	if err != nil {
		return rr, err
	}
	after := w.srv.Stats()
	rr.obs["frames"] = float64(after.Frames - before.Frames)
	rr.obs["admitted"] = float64(after.Admitted - before.Admitted)
	rr.obs["shed"] = float64(after.Shed - before.Shed)
	rr.obs["completed"] = float64(after.Completed - before.Completed)
	if st := w.eng.Registry().Stats(); st.Triggers != 0 {
		ck.failf("%d drift triggers on a stationary mix", st.Triggers)
	}
	if after.ProtocolErrors != 0 {
		ck.failf("%d protocol errors", after.ProtocolErrors)
	}
	rr.fingerprint = fp.sum()
	rr.failures = ck.failures
	return rr, nil
}

func (w *wireInstance) extra(hold func()) error {
	_, _, err := w.connection(nil, nil, w.cycles[0], 0, w.in.sz.wireArrivals, hold)
	return err
}

func (w *wireInstance) close() error { return stopServer(w.srv) }

func (w *wireInstance) layers(t *traced) (map[string]float64, error) {
	rounds := float64(len(t.rounds))
	m := map[string]float64{
		"server.client_send_ns":    t.spans[spClientSend].meanNS(),
		"server.client_flush_ns":   t.spans[spClientFlush].meanNS(),
		"server.client_readack_ns": t.spans[spClientReadAck].meanNS(),
		"server.frames":            t.obs("frames") / rounds,
		"server.admitted":          t.obs("admitted") / rounds,
		"server.shed":              t.obs("shed") / rounds,
		"server.completed":         t.obs("completed") / rounds,
	}
	// A second daemon gives start and shutdown times without ending the
	// one the rounds used.
	_, srv, startMS, err := startServer(w.in)
	if err != nil {
		return nil, err
	}
	probe := &wireInstance{in: w.in, srv: srv}
	if _, _, err := probe.connection(nil, nil, w.cycles[0], 0, w.in.sz.wireWindow, nil); err != nil {
		stopServer(srv)
		return nil, err
	}
	t0 := time.Now()
	if err := stopServer(srv); err != nil {
		return nil, err
	}
	m["server.start_ms"] = startMS
	m["server.shutdown_ms"] = sinceMS(t0)

	codecNS, err := w.probeCodec(m)
	if err != nil {
		return nil, err
	}
	submitNS, err := w.probeFreshSubmit()
	if err != nil {
		return nil, err
	}
	m["core.stream.submit_ns"] = submitNS
	// What cannot be seen from outside the daemon — socket syscalls, the
	// server loop, admission, flushing — is what is left of an arrival's
	// wall time once the codec and the engine are taken off.
	ops, _, plain := sumRounds(t.plain)
	m["server.residual_ns_per_arrival"] = float64(plain.wall.Nanoseconds())/float64(ops) - codecNS - submitNS
	return m, nil
}

// probeCodec times the wire codec over the exact frames one connection
// exchanges and returns the codec time per arrival.
func (w *wireInstance) probeCodec(m map[string]float64) (float64, error) {
	n := w.in.sz.wireArrivals
	c := w.cycles[0]
	q := []wire.Query{{}}
	var frame []byte
	var encErr error
	encode := bulk(n, func(i int) {
		q[0] = wire.Query{Template: uint32(c[i%numTemplates]), Tag: uint32(i)}
		frame, encErr = wire.AppendSubmit(frame[:0], uint32(i+1), (time.Duration(i) * wireGap).Microseconds(), 0, q)
	})
	if encErr != nil {
		return 0, encErr
	}
	submitBytes := len(frame)

	var stream []byte
	for i := 0; i < n; i++ {
		q[0] = wire.Query{Template: uint32(c[i%numTemplates]), Tag: uint32(i)}
		stream, _ = wire.AppendSubmit(stream, uint32(i+1), (time.Duration(i) * wireGap).Microseconds(), 0, q)
	}
	r := bytes.NewReader(stream)
	var f wire.Frame
	buf := make([]byte, 0, 4096)
	var decErr error
	decode := bulk(n, func(int) {
		var err error
		if buf, err = wire.ReadFrame(r, buf, &f); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return 0, decErr
	}

	var ack []byte
	ackReader := bytes.NewReader(nil)
	ackCodec := bulk(n, func(i int) {
		ack = wire.AppendAck(ack[:0], uint32(i+1), 1, 0, false)
		ackReader.Reset(ack)
		var err error
		if buf, err = wire.ReadFrame(ackReader, buf, &f); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return 0, decErr
	}
	m["wire.submit_encode_ns"] = encode
	m["wire.submit_decode_ns"] = decode
	m["wire.ack_codec_ns"] = ackCodec
	m["wire.bytes_per_arrival"] = float64(submitBytes + len(ack))
	return encode + decode + ackCodec, nil
}

// probeFreshSubmit replays one connection's arrivals straight into a
// stream of the same engine, in process, and returns the time per Submit.
func (w *wireInstance) probeFreshSubmit() (float64, error) {
	ctx := context.Background()
	n := w.in.sz.wireArrivals
	c := w.cycles[0]
	clock := &core.SimClock{}
	st := w.eng.NewStream(clock)
	defer st.Close()
	var failed error
	perSubmit := bulk(n, func(i int) {
		clock.Advance(time.Duration(i) * wireGap)
		if err := st.Submit(ctx, workload.Query{TemplateID: c[i%numTemplates], Tag: i}); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return 0, failed
	}
	if res := st.Finish(); len(res.Outcomes) != n {
		return 0, fmt.Errorf("%w: in-process replay completed %d of %d arrivals", errIncorrect, len(res.Outcomes), n)
	}
	return perSubmit, nil
}
