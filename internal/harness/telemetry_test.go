package harness

import (
	"bytes"
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
	// counters, histograms, and at least one window-manager gauge.
	var prom bytes.Buffer
	if err := hub.Current().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	scrape := prom.String()
	for _, want := range []string{
		"wincm_commits_total", "wincm_response_ns_bucket", "wincm_window_frame",
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

// TestRunTimedAttachesSeries: any figure run with a registry and interval
// configured gets the sampled series on its Result.
func TestRunTimedAttachesSeries(t *testing.T) {
	w, err := NewWorkload("list", Options{}.withDefaults().throughputMix(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Manager: "polka", Threads: 2, WindowN: 50, Seed: 1,
		Telemetry:         telemetry.NewRegistry(),
		TelemetryInterval: 5 * time.Millisecond,
	}
	res, err := RunTimed(cfg, w, 40*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) == 0 {
		t.Fatal("no series points")
	}
	final := res.Series[len(res.Series)-1]
	if final.Counters["wincm_commits_total"] != res.Summary.Commits {
		t.Errorf("final series commits %d ≠ summary commits %d",
			final.Counters["wincm_commits_total"], res.Summary.Commits)
	}
}
