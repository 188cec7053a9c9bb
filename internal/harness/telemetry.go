package harness

import (
	"fmt"
	"time"

	"wincm/internal/telemetry"
)

// telemetrySeriesPoints is how many interval samples the TelemetryFig
// run aims for: it samples every Duration/telemetrySeriesPoints, but no
// more often than every 5 ms.
const telemetrySeriesPoints = 16

// watched names the one cell the single-run figures (TelemetryFig,
// TraceFig) run — the first of Benchmarks under Manager at the largest of
// Threads — and labels it for their titles. o must be resolved.
func (o Options) watched() (benchmark string, threads int, label string) {
	benchmark, threads = o.Benchmarks[0], o.largestM()
	return benchmark, threads, fmt.Sprintf("%s under %s, M=%d", benchmark, o.Manager, threads)
}

// TelemetryFig runs one cell (the first of Benchmarks under Manager at the
// largest of Threads) with full telemetry — transaction histograms, the
// runtime's verdict counts, window-manager gauges, interval sampler — and
// renders two tables: the interval time series (live throughput, abort
// rate, fallback and window-machinery evolution) and the final
// latency-histogram quantiles. With Options.Hub
// attached the run is simultaneously scrapeable over HTTP while it
// executes.
func TelemetryFig(o Options) ([]Table, error) {
	o, err := o.resolve()
	if err != nil {
		return nil, err
	}
	benchmark, threads, label := o.watched()
	cfg := o.Config(o.Manager, threads, o.Seed)
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	cfg.TelemetryInterval = max(o.Duration/telemetrySeriesPoints, 5*time.Millisecond)
	res, err := o.timed(benchmark, cfg)
	if err != nil {
		return nil, err
	}
	return []Table{
		seriesTable(res.Series, label),
		quantileTable(cfg.Telemetry.Snapshot(), label, threads),
	}, nil
}

// seriesCounter reads a cumulative counter out of a point, 0 if absent.
func seriesCounter(p telemetry.Point, name string) int64 { return p.Counters[name] }

// seriesTable renders the interval series: per-interval commit/abort
// rates plus the window gauges' trajectory. Rates are deltas between
// consecutive points over the interval span.
func seriesTable(pts []telemetry.Point, label string) Table {
	t := Table{
		Title: "Telemetry: interval series — " + label,
		Columns: []string{"t_ms", "commits/s", "aborts/commit",
			"frame", "frame-pending", "C-max", "alpha-max", "collisions"},
	}
	var prev telemetry.Point
	for i, p := range pts {
		span := (p.At - prev.At).Seconds()
		if span <= 0 {
			continue
		}
		dCommits := seriesCounter(p, "wincm_commits_total") - seriesCounter(prev, "wincm_commits_total")
		dAborts := seriesCounter(p, "wincm_aborts_total") - seriesCounter(prev, "wincm_aborts_total")
		apc := 0.0
		if dCommits > 0 {
			apc = float64(dAborts) / float64(dCommits)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.At.Milliseconds()),
			fmt.Sprintf("%.0f", float64(dCommits)/span),
			fmt.Sprintf("%.2f", apc),
			fmt.Sprintf("%.0f", p.Gauges["wincm_window_frame"]),
			fmt.Sprintf("%.0f", p.Gauges["wincm_window_frame_pending"]),
			fmt.Sprintf("%.1f", p.Gauges["wincm_window_c_max"]),
			fmt.Sprintf("%.0f", p.Gauges["wincm_window_alpha_max"]),
			fmt.Sprintf("%.0f", p.Gauges["wincm_window_priority_collisions"]),
		})
		prev = pts[i]
	}
	return t
}

// quantileTable renders the final histogram quantiles plus the runtime's
// wait count and the summary view of the same snapshot.
func quantileTable(snap telemetry.Snapshot, label string, threads int) Table {
	t := Table{
		Title:   "Telemetry: final histograms — " + label,
		Columns: []string{"histogram", "count", "mean", "p50<=", "p99<="},
	}
	for _, name := range []string{
		"wincm_response_ns", "wincm_commit_duration_ns", "wincm_tx_attempts",
	} {
		h, ok := snap.Histograms[name]
		if !ok {
			continue
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", h.Count),
			fmt.Sprintf("%.0f", h.Mean()),
			fmt.Sprintf("%d", h.Quantile(0.5)),
			fmt.Sprintf("%d", h.Quantile(0.99)),
		})
	}
	waits, meanWait := snap.Gauges["wincm_resolve_wait_total"], 0.0
	if waits > 0 {
		meanWait = snap.Gauges["wincm_cm_wait_ns_total"] / waits
	}
	t.Rows = append(t.Rows, []string{
		"wincm_cm_wait_ns_total", fmt.Sprintf("%.0f", waits), fmt.Sprintf("%.0f", meanWait), "-", "-",
	})
	s := snap.Summary(threads, 0)
	t.Rows = append(t.Rows, []string{
		"(aborts/commit from snapshot)", fmt.Sprintf("%d", s.Commits),
		fmt.Sprintf("%.3f", s.AbortsPerCommit()), "-", "-",
	})
	return t
}
