package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"wincm/internal/telemetry"
)

// TestTelemetryFig runs the telemetry figure end-to-end with a hub
// attached: two tables render, the interval series is non-empty with window
// gauges present, and the hub is scrapeable mid-setup.
func TestTelemetryFig(t *testing.T) {
	hub := telemetry.NewHub()
	o := Options{
		Benchmarks: []string{"list"},
		Threads:    []int{4},
		Duration:   80 * time.Millisecond,
		Reps:       1,
		Hub:        hub,
	}
	tables, err := TelemetryFig(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables, want 2", len(tables))
	}
	if len(tables[0].Rows) == 0 {
		t.Error("interval series table has no rows")
	}
	var buf bytes.Buffer
	for i := range tables {
		if err := tables[i].Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "interval series") || !strings.Contains(out, "final histograms") {
		t.Errorf("table titles missing:\n%s", out)
	}
	if !strings.Contains(out, "wincm_response_ns") {
		t.Errorf("histogram rows missing:\n%s", out)
	}

	// The run installed its registry into the hub; a scrape now must show
	// the transaction histograms and at least one window-manager gauge.
	var prom bytes.Buffer
	if err := hub.Current().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	scrape := prom.String()
	for _, want := range []string{
		"wincm_tx_attempts_count", "wincm_response_ns_bucket", "wincm_wasted_ns_bucket", "wincm_window_frame",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %s:\n%s", want, scrape[:min(len(scrape), 2000)])
		}
	}
}

// TestTelemetryFigDefaultManager: with no manager named, the adaptive
// dynamic variant is watched and no hub is required.
func TestTelemetryFigDefaultManager(t *testing.T) {
	o := Options{
		Benchmarks: []string{"list"},
		Threads:    []int{2},
		Duration:   40 * time.Millisecond,
		Reps:       1,
	}
	tables, err := TelemetryFig(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tables[0].Title, "adaptive-improved-dynamic") {
		t.Errorf("title = %q, want the default manager named", tables[0].Title)
	}
}

// TestNextPointSkipsLateWake: the series loop's next point is the first
// whose deadline the clock has not passed. On time it is the next index; a
// wake that overslept one or more deadlines skips them, so two points are
// never taken microseconds apart, and past the last deadline it is points.
func TestNextPointSkipsLateWake(t *testing.T) {
	const d, points = 160 * time.Millisecond, 16 // a deadline every 10 ms
	for _, c := range []struct {
		prev    int
		elapsed time.Duration
		want    int
	}{
		{0, 0, 1},                           // the first point
		{1, 10*time.Millisecond + 50000, 2}, // woke 50 µs late: next deadline still ahead
		{1, 20 * time.Millisecond, 3},       // woke on deadline 2: it is passed
		{1, 35 * time.Millisecond, 4},       // overslept deadlines 2 and 3
		{14, 155 * time.Millisecond, 16},    // overslept the last one: no more points
		{15, 150 * time.Millisecond, 16},
	} {
		if got := nextPoint(c.prev, points, d, c.elapsed); got != c.want {
			t.Errorf("nextPoint(%d, %d, %v, %v) = %d, want %d", c.prev, points, d, c.elapsed, got, c.want)
		}
	}
	if got := nextPoint(0, points, 0, 0); got != points {
		t.Errorf("a zero-length run takes point %d, want none (%d)", got, points)
	}
}

// TestRunTimedAttachesSeries: a timed run asked for n points takes its
// registry's series itself — time-ordered, every histogram's count and sum
// monotone, at most n + 1 points, gauges present, and a last point taken
// after the workers joined, which holds every commit and abort the summary
// counts.
func TestRunTimedAttachesSeries(t *testing.T) {
	w, err := NewWorkload("list", Options{}.withDefaults().throughputMix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	res, err := run(Config{Manager: "polka", Threads: 2, Seed: 1}, w, 40*time.Millisecond, math.MaxInt, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < 2 || len(res.Series) > n+1 {
		t.Fatalf("%d series points, want 2 to %d", len(res.Series), n+1)
	}
	for i := 1; i < len(res.Series); i++ {
		prev, p := res.Series[i-1], res.Series[i]
		if p.At < prev.At {
			t.Errorf("point %d at %v precedes point %d at %v", i, p.At, i-1, prev.At)
		}
		for name, h := range p.Histograms {
			if ph := prev.Histograms[name]; h.Count < ph.Count || h.Sum < ph.Sum {
				t.Errorf("histogram %s went from count %d sum %d to count %d sum %d at point %d",
					name, ph.Count, ph.Sum, h.Count, h.Sum, i)
			}
		}
	}
	final := res.Series[len(res.Series)-1]
	a := final.Histograms["wincm_tx_attempts"]
	if a.Count != res.Summary.Commits || a.Sum-a.Count != res.Summary.Aborts {
		t.Errorf("final series commits %d, aborts %d ≠ summary commits %d, aborts %d",
			a.Count, a.Sum-a.Count, res.Summary.Commits, res.Summary.Aborts)
	}
	if _, ok := final.Gauges["wincm_resolve_wait_total"]; !ok {
		t.Errorf("final point has no verdict gauges: %v", final.Gauges)
	}
}
