package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
)

// Hub is the indirection between a long-lived HTTP endpoint and the
// per-run registries behind it: winbench serves one Hub for its whole
// lifetime while every experiment cell installs its own fresh Registry.
// A scrape always reads the registry of the run currently in flight (or
// the last finished one).
type Hub struct {
	cur atomic.Pointer[Registry]
}

// NewHub returns a hub with an empty registry installed, so scrapes
// before the first run succeed with no series.
func NewHub() *Hub {
	h := &Hub{}
	h.cur.Store(NewRegistry())
	return h
}

// Install makes r the registry scrapes read. Passing nil resets to an
// empty registry.
func (h *Hub) Install(r *Registry) {
	if r == nil {
		r = NewRegistry()
	}
	h.cur.Store(r)
}

// Current returns the installed registry.
func (h *Hub) Current() *Registry { return h.cur.Load() }

// ServeMetrics is the /metrics handler: the current registry in
// Prometheus text exposition format.
func (h *Hub) ServeMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := h.Current().WritePrometheus(w); err != nil {
		// The connection died mid-write; nothing sensible to do.
		return
	}
}

// Handler returns the telemetry mux for h: Prometheus text on /metrics,
// the full net/http/pprof surface (CPU, heap, block, mutex, goroutine
// profiles) on /debug/pprof/.
func Handler(h *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.ServeMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "wincm telemetry: /metrics /debug/pprof/")
	})
	return mux
}

// Serve starts the telemetry endpoint on addr and returns the listening
// server plus its bound address (useful with a :0 port). The server runs
// until Close; accept errors after Close are swallowed.
func Serve(addr string, h *Hub) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: Handler(h)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
