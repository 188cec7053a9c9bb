// Package telemetry is the repository's live observability layer: a
// low-overhead, always-compiled-in subsystem of sharded atomic counters,
// log-bucketed histograms and callback gauges that the winbench HTTP
// endpoint and the figure drivers (the telemetry figure's interval series
// among them) all read from.
// Workers record each committed transaction into TxStats; every other
// series is a gauge over the counter its event's own layer keeps (the STM
// runtime's commits, aborts and conflict verdicts, the window manager's
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
//   - No new locks on the hot path. Counters and histograms are sharded by
//     thread ID into cache-line-padded, single-writer slots; a record is a
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
	"sync/atomic"
)

// shardPad is the byte stride of one counter shard: two cache lines, so
// adjacent shards never share a line even with the adjacent-line prefetcher
// pulling pairs.
const shardPad = 128

// shardSlot is one cache-line-padded atomic cell.
type shardSlot struct {
	v atomic.Int64
	_ [shardPad - 8]byte
}

// Counter is a monotonically increasing sharded counter. Writers add into
// their own shard (indexed by thread ID, masked); readers sum all shards.
//
// Each shard is single-writer: updates are an unsynchronized read-modify
// followed by an atomic publish, so two goroutines adding into the same
// shard index concurrently can lose increments. Shard counts are rounded
// up to a power of two, so distinct in-range thread IDs never alias.
type Counter struct {
	name string
	help string
	mask uint32
	slot []shardSlot
}

// newCounter builds a counter with at least shards shards (rounded up to a
// power of two so indexing is a mask, never a modulo).
func newCounter(name, help string, shards int) *Counter {
	n := ceilPow2(shards)
	return &Counter{name: name, help: help, mask: uint32(n - 1), slot: make([]shardSlot, n)}
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add adds delta into the shard for the given writer index. Concurrent
// writers must use distinct shard indices (see the type comment); the
// load+store pair keeps the hot path free of locked bus cycles.
func (c *Counter) Add(shard int, delta int64) {
	s := &c.slot[uint32(shard)&c.mask]
	s.v.Store(s.v.Load() + delta)
}

// Inc adds one.
func (c *Counter) Inc(shard int) { c.Add(shard, 1) }

// Value returns the sum over all shards. It is monotone but not a
// consistent cut across counters — exactly what a scrape needs.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.slot {
		sum += c.slot[i].v.Load()
	}
	return sum
}

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
	counters   []*Counter
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

// NewCounter creates and registers a sharded counter.
func (r *Registry) NewCounter(name, help string, shards int) *Counter {
	c := newCounter(name, help, shards)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	r.counters = append(r.counters, c)
	return c
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
func (r *Registry) instruments() (cs []*Counter, hs []*Histogram, gs []Gauge) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cs = append(cs, r.counters...)
	hs = append(hs, r.histograms...)
	gs = append(gs, r.gauges...)
	return cs, hs, gs
}

// Snapshot is a point-in-time reading of every instrument in a registry.
type Snapshot struct {
	// Counters maps counter name to its summed value.
	Counters map[string]int64
	// Gauges maps gauge name to its sampled value.
	Gauges map[string]float64
	// Histograms maps histogram name to its merged state.
	Histograms map[string]HistogramSnapshot
}

// Snapshot reads every instrument once. Counter/histogram reads are
// monotone per instrument but the set is not a consistent cut — the usual
// scrape semantics.
func (r *Registry) Snapshot() Snapshot {
	cs, hs, gs := r.instruments()
	s := Snapshot{
		Counters:   make(map[string]int64, len(cs)),
		Gauges:     make(map[string]float64, len(gs)),
		Histograms: make(map[string]HistogramSnapshot, len(hs)),
	}
	for _, c := range cs {
		s.Counters[c.name] = c.Value()
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
// exposition format (version 0.0.4): counters as `<name> <value>`,
// gauges likewise, histograms as cumulative `_bucket{le="..."}` series
// plus `_sum` and `_count`. Output is sorted by metric name so scrapes
// are diffable and golden-testable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	cs, hs, gs := r.instruments()
	type metric struct {
		name string
		base string
		emit func(w io.Writer, header bool) error
	}
	var ms []metric
	for _, c := range cs {
		c := c
		ms = append(ms, metric{c.name, baseOf(c.name), func(w io.Writer, header bool) error {
			return writeSimple(w, c.name, c.help, "counter", float64(c.Value()), header)
		}})
	}
	for _, g := range gs {
		g := g
		ms = append(ms, metric{g.Name(), baseOf(g.Name()), func(w io.Writer, header bool) error {
			return writeSimple(w, g.Name(), g.Help(), "gauge", g.Value(), header)
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

// writeSimple emits one single-sample metric, with HELP/TYPE headers for
// the base name when header is set (the first series of each base).
func writeSimple(w io.Writer, series, help, typ string, v float64, header bool) error {
	if header {
		base := baseOf(series)
		if help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, typ); err != nil {
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
