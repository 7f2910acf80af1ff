package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"

	"wisedb/internal/core"
)

// Stats is the daemon's observable state: ingress counters plus the
// engine's scale-out and robustness snapshot. Served as JSON on the
// sidecar's /stats.
type Stats struct {
	// State is "serving", "draining", or "stopped".
	State string `json:"state"`
	// Connection accounting: accepted ever, rejected at the cap,
	// currently open.
	AcceptedConns int64 `json:"accepted_conns"`
	RejectedConns int64 `json:"rejected_conns"`
	ActiveConns   int64 `json:"active_conns"`
	// Frames counts protocol frames read; ProtocolErrors counts
	// connections dropped for garbage.
	Frames         int64 `json:"frames"`
	ProtocolErrors int64 `json:"protocol_errors"`
	// Query accounting. Admitted were passed into the engine; Shed
	// were dropped by the token bucket before admission; Completed
	// finished through stream flush. After a full drain,
	// Admitted == Completed unless the engine itself shed under
	// degradation (that shed is in Scale.ShedArrivals).
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
	// StreamsServed counts tenant streams opened over the daemon's life.
	StreamsServed int64 `json:"streams_served"`
	// Scale is the engine's ScaleStats snapshot: ω-map, degraded/shed/
	// deadline totals, and each tier's lifecycle and breaker (Registries).
	Scale core.ScaleStats `json:"scale"`
}

// Stats snapshots the daemon's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		AcceptedConns:  s.acceptedConns.Load(),
		RejectedConns:  s.rejectedConns.Load(),
		ActiveConns:    s.activeConns.Load(),
		Frames:         s.frames.Load(),
		ProtocolErrors: s.protocolErrors.Load(),
		Admitted:       s.admitted.Load(),
		Shed:           s.shed.Load(),
		Completed:      s.completed.Load(),
		StreamsServed:  s.streamsServed.Load(),
		Scale:          s.eng.ScaleStats(),
	}
	switch s.state.Load() {
	case stateServing:
		st.State = "serving"
	case stateDraining:
		st.State = "draining"
	case stateStopped:
		st.State = "stopped"
	default:
		st.State = "new"
	}
	return st
}

func (s *Server) startHTTP() error {
	ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
	if err != nil {
		return fmt.Errorf("server: http listen %s: %w", s.cfg.HTTPAddr, err)
	}
	s.httpLn = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Liveness: the process is up and responding, draining included.
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		// Readiness: accepting new work. Draining flips this first so
		// load balancers stop routing before connections start closing.
		if s.state.Load() != stateServing {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats())
	})
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(ln)
	return nil
}

// HTTPAddr returns the sidecar's bound address, or nil if disabled.
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// stopHTTP stops the sidecar after the drain completes — health stays
// observable while draining (/readyz flips to 503 the moment the drain
// starts).
func (s *Server) stopHTTP() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
}
