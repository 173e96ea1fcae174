package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"newmad/internal/packet"
)

// Server exposes one registry over HTTP. Each cluster node runs its own
// Server (default node = its own ID) against the shared registry, so any
// node's endpoint can answer for the whole mesh:
//
//	/metrics            Prometheus text for one node (?node=ID, default below)
//	/metrics.json       NodeSnapshot JSON for one node
//	/fleet              Prometheus text for the fleet roll-up
//	/fleet.json         FleetSnapshot JSON
//	/debug/pprof/...    net/http/pprof (explicitly registered — the
//	                    server uses its own mux, not http.DefaultServeMux)
//	/debug/vars         expvar
type Server struct {
	reg  *Registry
	node packet.NodeID
	ln   net.Listener
	srv  *http.Server
}

// NewServer builds a server over reg whose parameterless /metrics
// answers for defaultNode.
func NewServer(reg *Registry, defaultNode packet.NodeID) *Server {
	s := &Server{reg: reg, node: defaultNode}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("/fleet", s.handleFleet)
	mux.HandleFunc("/fleet.json", s.handleFleetJSON)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	s.srv = &http.Server{Handler: mux}
	return s
}

// Listen binds addr (e.g. "127.0.0.1:0") and serves in the background
// until Close. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.srv.Serve(ln) //nolint:errcheck — Serve returns ErrServerClosed on Close
	return ln.Addr().String(), nil
}

// Addr returns the bound address, empty before Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.ln == nil {
		return nil
	}
	return s.srv.Close()
}

// pick resolves the ?node= query, falling back to the server's default.
// Anything but a whole decimal node ID is refused.
func (s *Server) pick(r *http.Request) (packet.NodeID, bool) {
	q := r.URL.Query().Get("node")
	if q == "" {
		return s.node, true
	}
	id, err := strconv.ParseInt(q, 10, 32)
	if err != nil {
		return 0, false
	}
	return packet.NodeID(id), true
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	node, ok := s.pick(r)
	if !ok {
		http.Error(w, "bad node", http.StatusBadRequest)
		return
	}
	ns, ok := s.reg.Snapshot(node)
	if !ok {
		http.Error(w, "unknown node", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteProm(w, ns)
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	node, ok := s.pick(r)
	if !ok {
		http.Error(w, "bad node", http.StatusBadRequest)
		return
	}
	ns, ok := s.reg.Snapshot(node)
	if !ok {
		http.Error(w, "unknown node", http.StatusNotFound)
		return
	}
	writeJSON(w, ns)
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteFleetProm(w, s.reg.Fleet())
}

func (s *Server) handleFleetJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.reg.Fleet())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck — client gone is not our error
}
