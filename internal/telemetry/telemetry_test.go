package telemetry_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"wincm/internal/telemetry"
)

func TestGauge(t *testing.T) {
	v := 1.5
	g := telemetry.NewGauge("g", "a gauge", func() float64 { return v })
	if g.Name() != "g" || g.Help() != "a gauge" {
		t.Errorf("gauge metadata = %q %q", g.Name(), g.Help())
	}
	if g.Value() != 1.5 {
		t.Errorf("Value = %v", g.Value())
	}
	v = 2.5
	if g.Value() != 2.5 {
		t.Error("gauge did not resample")
	}
}

func TestRegistrySnapshotAndSources(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.NewHistogram("snap_h", "", 1)
	r.RegisterGauge(telemetry.NewGauge("snap_g1", "", func() float64 { return 7 }))
	r.RegisterGauge(telemetry.NewGauge("snap_g2", "", func() float64 { return 8 }))
	h.Observe(0, 100)
	s := r.Snapshot()
	if s.Gauges["snap_g1"] != 7 || s.Gauges["snap_g2"] != 8 {
		t.Errorf("gauges = %v", s.Gauges)
	}
	if hs := s.Histograms["snap_h"]; hs.Count != 1 || hs.Sum != 100 {
		t.Errorf("histogram = %+v", s.Histograms["snap_h"])
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := telemetry.NewRegistry()
	r.NewHistogram("dup", "", 1)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("duplicate registration did not panic")
		}
		if !strings.Contains(rec.(string), "dup") {
			t.Errorf("panic = %v", rec)
		}
	}()
	r.RegisterGauge(telemetry.NewGauge("dup", "", func() float64 { return 0 }))
}

// TestSnapshotConcurrentWithWriters: scraping while the workload writes is
// the telemetry layer's core guarantee; run with -race. Every observation
// is at least 1, so a snapshot's Sum covers its Count (the bound that keeps
// TxStats' derived aborts non-negative mid-run), and both only grow.
func TestSnapshotConcurrentWithWriters(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.NewHistogram("live_h", "", 4)
	r.RegisterGauge(telemetry.NewGauge("live_g", "", func() float64 { return float64(h.Snapshot().Count) }))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(shard, int64(shard+1))
				}
			}
		}(i)
	}
	var prev telemetry.HistogramSnapshot
	for i := 0; i < 50; i++ {
		hs := r.Snapshot().Histograms["live_h"]
		if hs.Sum < hs.Count || hs.Count < prev.Count || hs.Sum < prev.Sum {
			t.Fatalf("snapshot count %d sum %d after count %d sum %d", hs.Count, hs.Sum, prev.Count, prev.Sum)
		}
		prev = hs
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLabeledGaugeGrouping: a base name used both labeled and unlabeled
// next to a prefix-extending neighbor ('{' sorts after '_', so plain
// name order would interleave x < x_suffix < x{...} and emit x's
// HELP/TYPE header twice — invalid exposition). Grouping by base name
// must keep one header per base regardless of neighbors.
func TestLabeledGaugeGrouping(t *testing.T) {
	r := telemetry.NewRegistry()
	r.RegisterGauge(telemetry.NewGauge("x", "base", func() float64 { return 1 }))
	r.RegisterGauge(telemetry.NewGauge("x_suffix", "neighbor", func() float64 { return 2 }))
	r.RegisterGauge(telemetry.NewLabeledGauge("x", `shard="0"`, "base", func() float64 { return 3 }))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE x gauge\n"); got != 1 {
		t.Fatalf("want exactly one TYPE header for base x, got %d in:\n%s", got, out)
	}
	if got := strings.Count(out, "# TYPE x_suffix gauge\n"); got != 1 {
		t.Fatalf("want exactly one TYPE header for x_suffix, got %d in:\n%s", got, out)
	}
}

// TestLabeledGauges: per-shard series share one HELP/TYPE header, render
// with their label sets, and register independently (duplicate label sets
// still panic).
func TestLabeledGauges(t *testing.T) {
	r := telemetry.NewRegistry()
	for i := 0; i < 3; i++ {
		i := i
		r.RegisterGauge(telemetry.NewLabeledGauge("kv_shard_commits",
			fmt.Sprintf("shard=%q", fmt.Sprint(i)),
			"commits per shard", func() float64 { return float64(10 * i) }))
	}
	r.RegisterGauge(telemetry.NewGauge("kv_plain", "unlabeled neighbor", func() float64 { return 1 }))
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "# TYPE kv_shard_commits gauge"); got != 1 {
		t.Fatalf("want exactly one TYPE header for the labeled base, got %d in:\n%s", got, out)
	}
	if got := strings.Count(out, "# HELP kv_shard_commits "); got != 1 {
		t.Fatalf("want exactly one HELP header, got %d in:\n%s", got, out)
	}
	for i, want := range []string{
		"kv_shard_commits{shard=\"0\"} 0\n",
		"kv_shard_commits{shard=\"1\"} 10\n",
		"kv_shard_commits{shard=\"2\"} 20\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("series %d missing %q in:\n%s", i, want, out)
		}
	}
	if !strings.Contains(out, "# TYPE kv_plain gauge\nkv_plain 1\n") {
		t.Fatalf("unlabeled gauge lost its header in:\n%s", out)
	}
	// A snapshot keys labeled series by full name.
	if v := r.Snapshot().Gauges[`kv_shard_commits{shard="1"}`]; v != 10 {
		t.Fatalf("snapshot of labeled series = %v, want 10", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate labeled series did not panic")
		}
	}()
	r.RegisterGauge(telemetry.NewLabeledGauge("kv_shard_commits", `shard="1"`,
		"dup", func() float64 { return 0 }))
}
