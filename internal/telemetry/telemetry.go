// Package telemetry is the repository's live observability layer: a
// low-overhead, always-compiled-in subsystem of sharded log-bucketed
// histograms and callback gauges that the winbench HTTP endpoint and the
// figure drivers (the telemetry figure's interval series among them) all
// read from.
// Workers record each committed transaction into TxStats, four histograms
// whose counts and sums give every per-run count the figures report; every
// other series is a gauge over the counter its event's own layer keeps (the
// STM runtime's commits, aborts and conflict verdicts, the window manager's
// decisions, the B-link tree's semantic events). Nothing here hooks the
// STM hot path.
//
// The paper's argument rests on measured scheduler behaviour — throughput,
// aborts per commit, wasted work, and how the window managers' frame and
// priority machinery reacts to contention. End-of-run aggregates
// (Snapshot.Summary) answer *that* a manager wins; the rest of the telemetry
// layer answers *why*, by exposing the same quantities time-resolved and
// live while a run is in flight.
//
// Design constraints, in order:
//
//   - No new locks on the hot path. Histograms are sharded by thread ID into cache-line-padded, single-writer slots; a record is a
//     plain load + atomic store on the writer's own cache line — no
//     read-modify-write, so it pipelines behind the surrounding STM work
//     instead of serializing on a locked bus cycle. Readers merge shards
//     at scrape time.
//   - Race-free reads from outside. Everything a gauge or snapshot touches
//     is an atomic or guarded by the owning structure's existing mutex, so
//     a scrape goroutine can run concurrently with the workload under
//     -race.
//   - Registration is cheap but not hot: a Registry is built once per run,
//     under a mutex; the hot path only ever touches pre-registered
//     instruments.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Gauge is a named instantaneous reading, sampled at scrape time. The
// window managers publish their internal scheduling state (current frame,
// frame occupancy, contention estimates, priority collisions) through this
// interface.
type Gauge interface {
	// Name is the metric name (prometheus-safe snake_case).
	Name() string
	// Help is a one-line description.
	Help() string
	// Value samples the gauge now. It must be safe to call from any
	// goroutine concurrently with the workload.
	Value() float64
}

// gaugeFunc adapts a closure to Gauge.
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g gaugeFunc) Name() string   { return g.name }
func (g gaugeFunc) Help() string   { return g.help }
func (g gaugeFunc) Value() float64 { return g.fn() }

// NewGauge builds a Gauge from a sampling closure.
func NewGauge(name, help string, fn func() float64) Gauge {
	return gaugeFunc{name: name, help: help, fn: fn}
}

// NewLabeledGauge builds a Gauge whose sample line carries a Prometheus
// label set: NewLabeledGauge("wincm_kv_shard_commits", `shard="3"`, ...)
// renders as `wincm_kv_shard_commits{shard="3"} <v>`. Name() returns the
// full series name (base plus label set), so each labeled series
// registers independently while WritePrometheus emits the HELP/TYPE
// header once per base name — the sharded KV service keys its per-shard
// gauges this way. labels must be a well-formed label body (no braces).
func NewLabeledGauge(name, labels, help string, fn func() float64) Gauge {
	if labels == "" {
		return gaugeFunc{name: name, help: help, fn: fn}
	}
	return gaugeFunc{name: name + "{" + labels + "}", help: help, fn: fn}
}

// baseOf strips a label set from a series name: the metric name Prometheus
// HELP/TYPE headers must carry.
func baseOf(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

// Registry holds one run's instruments. Registration is mutex-guarded;
// reads (scrapes, snapshots) take the same mutex only to copy the
// instrument lists, never while summing shards.
type Registry struct {
	mu         sync.Mutex
	histograms []*Histogram
	gauges     []Gauge
	names      map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register claims a name, panicking on duplicates (an init bug, like a
// duplicate cm.Register).
func (r *Registry) register(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	r.names[name] = true
}

// NewHistogram creates and registers a sharded log-bucketed histogram.
func (r *Registry) NewHistogram(name, help string, shards int) *Histogram {
	h := newHistogram(name, help, shards)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	r.histograms = append(r.histograms, h)
	return h
}

// RegisterGauge adds one gauge.
func (r *Registry) RegisterGauge(g Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(g.Name())
	r.gauges = append(r.gauges, g)
}

// instruments returns stable-order copies of the instrument lists.
func (r *Registry) instruments() (hs []*Histogram, gs []Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	hs = append(hs, r.histograms...)
	gs = append(gs, r.gauges...)
	return hs, gs
}

// Snapshot is a point-in-time reading of every instrument in a registry:
// each gauge sampled once, each histogram merged once.
type Snapshot struct {
	// Gauges maps gauge name to its sampled value.
	Gauges map[string]float64
	// Histograms maps histogram name to its merged state.
	Histograms map[string]HistogramSnapshot
}

// Snapshot reads every instrument once. A histogram's Count and Sum are
// each monotone across snapshots, but the set is not a consistent cut —
// the usual scrape semantics.
func (r *Registry) Snapshot() Snapshot {
	hs, gs := r.instruments()
	s := Snapshot{
		Gauges:     make(map[string]float64, len(gs)),
		Histograms: make(map[string]HistogramSnapshot, len(hs)),
	}
	for _, g := range gs {
		s.Gauges[g.Name()] = g.Value()
	}
	for _, h := range hs {
		s.Histograms[h.name] = h.Snapshot()
	}
	return s
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4): gauges as `<name> <value>`,
// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count`. Output is sorted by metric name so scrapes
// are diffable and golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	hs, gs := r.instruments()
	type metric struct {
		name string
		base string
		emit func(w io.Writer, header bool) error
	}
	var ms []metric
	for _, g := range gs {
		g := g
		ms = append(ms, metric{g.Name(), baseOf(g.Name()), func(w io.Writer, header bool) error {
			return writeGauge(w, g.Name(), g.Help(), g.Value(), header)
		}})
	}
	for _, h := range hs {
		h := h
		ms = append(ms, metric{h.name, baseOf(h.name), func(w io.Writer, _ bool) error {
			return h.writePrometheus(w)
		}})
	}
	// Sort by (base, series), not series alone: '{' orders after '_', so
	// a labeled series of base X would otherwise sort after X_suffix and
	// split X's group, duplicating its HELP/TYPE header — invalid
	// exposition. Grouping by base keeps one header per base metric no
	// matter what other names the registry holds.
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].base != ms[j].base {
			return ms[i].base < ms[j].base
		}
		return ms[i].name < ms[j].name
	})
	last := ""
	for _, m := range ms {
		if err := m.emit(w, m.base != last); err != nil {
			return err
		}
		last = m.base
	}
	return nil
}

// writeGauge emits one gauge sample, with HELP/TYPE headers for the base
// name when header is set (the first series of each base).
func writeGauge(w io.Writer, series, help string, v float64, header bool) error {
	if header {
		base := baseOf(series)
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s %s\n", series, formatFloat(v))
	return err
}

// formatFloat renders a sample value the way Prometheus clients do:
// integers without an exponent, everything else in shortest form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	s := fmt.Sprintf("%g", v)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// ceilPow2 rounds n up to a power of two, minimum 1.
func ceilPow2(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
