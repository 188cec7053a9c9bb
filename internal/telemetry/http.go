package telemetry

import (
	"fmt"
	"io"
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
	cur   atomic.Pointer[Registry]
	trace atomic.Pointer[TraceSource]
}

// TraceSource is what the hub needs from a flight-recorder collector to
// serve the /trace endpoints. wincm/internal/txtrace's Collector satisfies
// it; the indirection keeps telemetry free of a txtrace dependency (and
// vice versa — txtrace pushes, telemetry pulls).
type TraceSource interface {
	// WriteSnapshot writes a human-oriented JSON summary of the retained
	// trace window (counts, conflict graph, heatmap).
	WriteSnapshot(w io.Writer) error
	// WriteChromeTrace writes the retained window as Chrome trace-event
	// JSON, loadable in Perfetto.
	WriteChromeTrace(w io.Writer) error
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

// InstallTrace makes src the collector the /trace endpoints read; each
// traced run installs its own, like Install for registries. Passing nil
// uninstalls (the endpoints then answer 404).
func (h *Hub) InstallTrace(src TraceSource) {
	if src == nil {
		h.trace.Store(nil)
		return
	}
	h.trace.Store(&src)
}

// TraceSource returns the installed trace source, or nil.
func (h *Hub) TraceSource() TraceSource {
	if p := h.trace.Load(); p != nil {
		return *p
	}
	return nil
}

// ServeTraceSnapshot is the /trace/snapshot handler: a JSON summary of
// the live trace window (event counts, thread conflict graph, hot-variable
// heatmap). 404 when no traced run is installed.
func (h *Hub) ServeTraceSnapshot(w http.ResponseWriter, _ *http.Request) {
	src := h.TraceSource()
	if src == nil {
		http.Error(w, "no trace source installed (run with tracing enabled)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = src.WriteSnapshot(w)
}

// ServeTraceDump is the /trace/dump handler: the full retained window as
// Chrome trace-event JSON — save it and load it in Perfetto
// (ui.perfetto.dev) or chrome://tracing. 404 when no traced run is
// installed.
func (h *Hub) ServeTraceDump(w http.ResponseWriter, _ *http.Request) {
	src := h.TraceSource()
	if src == nil {
		http.Error(w, "no trace source installed (run with tracing enabled)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="wincm-trace.json"`)
	_ = src.WriteChromeTrace(w)
}

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
// profiles) on /debug/pprof/, and the live trace window on /trace/.
func Handler(h *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.ServeMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/trace/snapshot", h.ServeTraceSnapshot)
	mux.HandleFunc("/trace/dump", h.ServeTraceDump)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "wincm telemetry: /metrics /debug/pprof/ /trace/snapshot /trace/dump")
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
