package telemetry_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wincm/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden pins the exact text exposition output for a
// deterministic registry: HELP/TYPE headers, sorted metric order,
// cumulative le-labelled buckets with trailing empties elided, and the
// integer/float sample formatting.
func TestWritePrometheusGolden(t *testing.T) {
	r := telemetry.NewRegistry()
	a := r.NewHistogram("wincm_tx_attempts", "attempts needed per committed transaction", 2)
	a.Observe(0, 1)
	a.Observe(1, 3)
	r.NewHistogram("wincm_wasted_ns", "time spent in aborted attempts", 2) // stays empty
	r.RegisterGauge(telemetry.NewGauge("wincm_window_frame", "current frame index", func() float64 { return 3 }))
	r.RegisterGauge(telemetry.NewGauge("wincm_window_c_mean", "mean contention estimate", func() float64 { return 2.5 }))
	r.RegisterGauge(telemetry.NewGauge("wincm_window_threads_outside", "threads outside the window schedule", func() float64 { return 2 }))
	r.RegisterGauge(telemetry.NewGauge("wincm_window_entries_total", "entries into the window schedule", func() float64 { return 7 }))
	r.RegisterGauge(telemetry.NewGauge("wincm_window_clean_exits_total", "clean segments that left the schedule", func() float64 { return 5 }))
	h := r.NewHistogram("wincm_response_ns", "transaction response time", 2)
	h.Observe(0, 0)
	h.Observe(0, 1)
	h.Observe(1, 3)
	h.Observe(1, 12)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestWritePrometheusContract checks structural properties that must hold
// for any scraper, independent of the exact golden bytes.
func TestWritePrometheusContract(t *testing.T) {
	r := telemetry.NewRegistry()
	r.RegisterGauge(telemetry.NewGauge("z_total", "", func() float64 { return 5 }))
	h := r.NewHistogram("a_hist", "", 1)
	h.Observe(0, 100)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Sorted by metric name: the histogram block precedes the gauge.
	if strings.Index(out, "a_hist") > strings.Index(out, "z_total") {
		t.Error("metrics not sorted by name")
	}
	for _, want := range []string{
		"# TYPE a_hist histogram",
		`a_hist_bucket{le="+Inf"} 1`,
		"a_hist_sum 100",
		"a_hist_count 1",
		"# TYPE z_total gauge",
		"z_total 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
