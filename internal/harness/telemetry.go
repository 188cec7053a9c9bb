package harness

import (
	"fmt"

	"wincm/internal/telemetry"
)

// telemetrySeriesPoints is how many points the TelemetryFig run takes of
// its registry, one every Duration/telemetrySeriesPoints.
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
// runtime's verdict counts, window-manager gauges, and the series of
// telemetrySeriesPoints registry snapshots the run takes — and renders two
// tables: the interval time series (live throughput, abort rate, fallback
// and window-machinery evolution) and the final latency-histogram
// quantiles, read off the series' last point. With Options.Hub attached the
// run is simultaneously scrapeable over HTTP while it executes.
func TelemetryFig(o Options) ([]Table, error) {
	o, err := o.resolve()
	if err != nil {
		return nil, err
	}
	benchmark, threads, label := o.watched()
	cfg := o.Config(o.Manager, threads, o.Seed)
	res, err := o.timed(benchmark, cfg, telemetrySeriesPoints)
	if err != nil {
		return nil, err
	}
	return []Table{
		seriesTable(res.Series, label),
		quantileTable(res.Series[len(res.Series)-1].Snapshot, label, threads),
	}, nil
}

// seriesTable renders the interval series: per-interval commit/abort
// rates plus the window gauges' trajectory. Rates are deltas between
// consecutive points over the interval span. Commits and aborts come off
// the attempts histogram (count, and sum − count), so an interval's aborts
// are those of the transactions that committed in it.
func seriesTable(pts []Point, label string) Table {
	t := Table{
		Title: "Telemetry: interval series — " + label,
		Columns: []string{"t_ms", "commits/s", "aborts/commit",
			"frame", "frame-pending", "C-max", "alpha-max", "collisions"},
	}
	var prev Point
	for i, p := range pts {
		span := (p.At - prev.At).Seconds()
		if span <= 0 {
			continue
		}
		a, pa := p.Histograms["wincm_tx_attempts"], prev.Histograms["wincm_tx_attempts"]
		dCommits := a.Count - pa.Count
		dAborts := a.Sum - pa.Sum - dCommits
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
		"wincm_response_ns", "wincm_commit_duration_ns", "wincm_tx_attempts", "wincm_wasted_ns",
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
	// The wait row's mean is the time a Wait verdict actually blocked its
	// thread, which a parked loser's early wake makes shorter than the
	// granted span.
	waits, meanWait := snap.Gauges["wincm_resolve_wait_total"], 0.0
	if waits > 0 {
		meanWait = snap.Gauges["wincm_cm_wait_ns_total"] / waits
	}
	t.Rows = append(t.Rows, []string{
		"wincm_cm_wait_ns_total (waited per Wait)", fmt.Sprintf("%.0f", waits), fmt.Sprintf("%.0f", meanWait), "-", "-",
	})
	s := snap.Summary(threads, 0)
	t.Rows = append(t.Rows, []string{
		"(aborts/commit from snapshot)", fmt.Sprintf("%d", s.Commits),
		fmt.Sprintf("%.3f", s.AbortsPerCommit()), "-", "-",
	})
	return t
}
