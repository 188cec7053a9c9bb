package main

import (
	"fmt"
	"io"
	"sort"
)

// decl declares one metric. BENCHMARK.json lists the same names, units and
// directions (a test keeps the two in step); layer is the name up to its
// last prefix and is spelled out in README.md.
type decl struct {
	name, unit, better string
	// bound is the regression bound of an end-to-end metric.
	bound float64
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off.
var endToEnd = []decl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "heap_loaded_mb", unit: "MB", better: "lower", bound: 0.10},
}

// perLayer are the metrics of single layers, measured by the traced run. A
// metric whose layer does no work on a workload reads 0 there.
var perLayer = []decl{
	{name: "client.gen_ns_per_op", unit: "ns", better: "lower"},
	{name: "client.flush_ns_per_batch", unit: "ns", better: "lower"},
	{name: "client.wait_ns_per_batch", unit: "ns", better: "lower"},
	{name: "client.batch_p50_us", unit: "us", better: "lower"},
	{name: "client.batch_p99_us", unit: "us", better: "lower"},
	{name: "client.batch_p999_us", unit: "us", better: "lower"},
	{name: "client.batch_samples", unit: "count", better: "higher"},
	{name: "client.ops_per_s.get", unit: "ops/s", better: "higher"},
	{name: "client.ops_per_s.set", unit: "ops/s", better: "higher"},
	{name: "client.ops_per_s.mget", unit: "ops/s", better: "higher"},
	{name: "client.ops_per_s.mset", unit: "ops/s", better: "higher"},
	{name: "client.ops_per_s.scan", unit: "ops/s", better: "higher"},
	{name: "client.window_iqr_frac", unit: "ratio", better: "lower"},
	{name: "client.residual_ns_per_op", unit: "ns", better: "lower"},
	{name: "client.failed_frac", unit: "ratio", better: "lower"},

	{name: "kv.wire.ping_ns_per_op", unit: "ns", better: "lower"},
	{name: "kv.wire.self_ns_per_op", unit: "ns", better: "lower"},
	{name: "kv.wire.req_bytes_per_op", unit: "B", better: "lower"},
	{name: "kv.wire.reply_bytes_per_op", unit: "B", better: "lower"},
	{name: "kv.wire.reads_per_kop", unit: "count", better: "lower"},

	{name: "kv.session.ns_per_op.get", unit: "ns", better: "lower"},
	{name: "kv.session.ns_per_op.set", unit: "ns", better: "lower"},
	{name: "kv.session.ns_per_op.mget", unit: "ns", better: "lower"},
	{name: "kv.session.ns_per_op.mset", unit: "ns", better: "lower"},
	{name: "kv.session.ns_per_op.scan", unit: "ns", better: "lower"},
	{name: "kv.session.self_ns_per_op", unit: "ns", better: "lower"},
	{name: "kv.session.commits_per_op", unit: "ratio", better: "lower"},
	{name: "kv.session.get_stall_ratio", unit: "ratio", better: "lower"},
	{name: "kv.session.replay_ops_per_s", unit: "ops/s", better: "higher"},

	{name: "txbtree.get_ns_per_op", unit: "ns", better: "lower"},
	{name: "txbtree.insert_ns_per_op", unit: "ns", better: "lower"},
	{name: "txbtree.scan64_ns_per_op", unit: "ns", better: "lower"},
	{name: "txbtree.self_ns_per_op", unit: "ns", better: "lower"},
	{name: "txbtree.semantic_conflicts_per_kop", unit: "count", better: "lower"},
	{name: "txbtree.structural_ops_per_kop", unit: "count", better: "lower"},
	{name: "txbtree.false_conflicts_avoided_per_kop", unit: "count", better: "higher"},

	{name: "stm.atomic_empty_ns", unit: "ns", better: "lower"},
	{name: "stm.atomic_rw1_ns", unit: "ns", better: "lower"},
	{name: "stm.aborts_per_commit", unit: "ratio", better: "lower"},
	{name: "stm.wasted_frac", unit: "ratio", better: "lower"},
	{name: "stm.repeat_aborts_per_commit", unit: "ratio", better: "lower"},
	{name: "stm.resp_mean_us", unit: "us", better: "lower"},
	{name: "stm.commit_dur_mean_us", unit: "us", better: "lower"},
	{name: "stm.overhead_frac", unit: "ratio", better: "lower"},
	{name: "stm.fallback_per_mcommit", unit: "count", better: "lower"},
	{name: "stm.max_attempts", unit: "count", better: "lower"},
	{name: "stm.watchdog_trips", unit: "count", better: "lower"},

	{name: "core.tx_overhead_ns", unit: "ns", better: "lower"},
	{name: "core.frames_per_s", unit: "1/s", better: "higher"},
	{name: "core.bad_events_per_kcommit", unit: "count", better: "lower"},
	{name: "core.priority_collisions_per_kcommit", unit: "count", better: "lower"},
	{name: "core.fallback_commits", unit: "count", better: "lower"},
	{name: "core.vs_polka_ratio", unit: "ratio", better: "higher"},

	{name: "vacation.tx_us_uncontended", unit: "us", better: "lower"},

	{name: "go.alloc_b_per_op", unit: "B", better: "lower"},
	{name: "go.gc_cycles", unit: "count", better: "lower"},
	{name: "go.gc_pause_total_ms", unit: "ms", better: "lower"},
	{name: "go.heap_peak_mb", unit: "MB", better: "lower"},

	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
}

// metricSet collects one run's values against a declared list. Setting an
// undeclared name, or a name twice, is a bug in the benchmark.
type metricSet struct {
	decls  []decl
	values map[string]float64
}

func newMetricSet(decls []decl) *metricSet {
	return &metricSet{decls: decls, values: make(map[string]float64, len(decls))}
}

func (m *metricSet) set(name string, v float64) {
	if _, dup := m.values[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	for _, d := range m.decls {
		if d.name == name {
			m.values[name] = v
			return
		}
	}
	panic("benchmark: undeclared metric: " + name)
}

// value is one metric of the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export returns every declared metric; one the run did not measure —
// because its layer does no work on the workload — is 0.
func (m *metricSet) export() map[string]value {
	out := make(map[string]value, len(m.decls))
	for _, d := range m.decls {
		out[d.name] = value{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

// print lists every declared metric by name and unit.
func (m *metricSet) print(w io.Writer, workload string) {
	for _, d := range m.decls {
		v, ok := m.values[d.name]
		note := ""
		if !ok {
			note = "  (layer idle on this workload)"
		}
		fmt.Fprintf(w, "metric %-18s %-42s %16.4f %s%s\n", workload, d.name, v, d.unit, note)
	}
}

// sanity is one workload-shape assertion: the workload still exercises what
// it was chosen for.
type sanity struct {
	what string
	ok   bool
}

func check(list *[]sanity, ok bool, format string, args ...any) {
	*list = append(*list, sanity{what: fmt.Sprintf(format, args...), ok: ok})
}

func printSanity(w io.Writer, workload string, list []sanity) (allOK bool) {
	allOK = true
	sort.SliceStable(list, func(i, j int) bool { return list[i].ok && !list[j].ok })
	for _, s := range list {
		tag := "ok  "
		if !s.ok {
			tag = "FAIL"
			allOK = false
		}
		fmt.Fprintf(w, "sanity %-18s %s %s\n", workload, tag, s.what)
	}
	return allOK
}
