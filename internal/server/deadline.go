package server

import (
	"bufio"
	"net"
	"time"

	"wisedb/internal/wire"
)

// timedConn sits between a net.Conn and the bufio.Reader/Writer of
// either end of a connection and arms the socket's deadlines where the
// socket is actually used. A frame served from the read buffer and an
// ack parked in the write buffer wait on nothing, so they touch neither
// the runtime timer heap nor the wall clock; under a pipelined window
// that is all but one frame in thirty.
//
// Read: the deadline is armed when a frame first has to go to the
// socket, and further socket reads for the same frame do not extend it
// — readTimeout bounds the wait for the whole frame, so a peer dripping
// bytes is cut off as surely as a silent one. Write: writeTimeout
// bounds each socket write, whether a flush or a full buffer spilling.
type timedConn struct {
	c            net.Conn
	readTimeout  time.Duration
	writeTimeout time.Duration
	// srv is set on the server end, whose drain must wake blocked reads.
	srv *Server
	// armed: the read deadline for the current frame is already set.
	armed bool
}

// readFrame reads the next frame through br, which must read from tc.
func (tc *timedConn) readFrame(br *bufio.Reader, buf []byte, f *wire.Frame) ([]byte, error) {
	tc.armed = false
	return wire.ReadFrame(br, buf, f)
}

func (tc *timedConn) Read(p []byte) (int, error) {
	if !tc.armed {
		tc.armed = true
		tc.c.SetReadDeadline(time.Now().Add(tc.readTimeout))
		// A drain nudge (an immediate deadline set by nudgeConns) that
		// landed since the last socket read was just overwritten. Shutdown
		// stores the draining state before it nudges, so either this load
		// sees the drain or the nudge comes after the arm above.
		if tc.srv != nil && tc.srv.draining() {
			tc.c.SetReadDeadline(time.Now())
		}
	}
	return tc.c.Read(p)
}

func (tc *timedConn) Write(p []byte) (int, error) {
	tc.c.SetWriteDeadline(time.Now().Add(tc.writeTimeout))
	return tc.c.Write(p)
}
