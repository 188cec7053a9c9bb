package harness_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wincm/internal/bench"
	"wincm/internal/harness"
)

func tinyOpts() harness.Options {
	return harness.Options{
		Threads:  []int{2},
		Duration: 30 * time.Millisecond,
		Reps:     1,
		TotalTxs: 400,
		Seed:     3,
	}
}

func TestNewWorkloadNames(t *testing.T) {
	for _, name := range harness.BenchmarkNames() {
		w, err := harness.NewWorkload(name, bench.Mix{UpdatePct: 50, KeyRange: 64}, 1)
		if err != nil {
			t.Fatalf("NewWorkload(%q): %v", name, err)
		}
		if w.Name() != name {
			t.Errorf("workload %q reports name %q", name, w.Name())
		}
	}
	if _, err := harness.NewWorkload("bogus", bench.Mix{}, 1); err == nil {
		t.Error("NewWorkload(bogus) succeeded")
	}
}

func TestRunTimedSmoke(t *testing.T) {
	for _, mgr := range []string{"polka", "greedy", "priority", "online-dynamic"} {
		mgr := mgr
		t.Run(mgr, func(t *testing.T) {
			t.Parallel()
			w, err := harness.NewWorkload("list", bench.Mix{UpdatePct: 100, KeyRange: 64}, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg := harness.Config{Manager: mgr, Threads: 4, Seed: 1}
			res, err := harness.RunTimed(cfg, w, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if res.Commits == 0 {
				t.Error("no commits in timed run")
			}
			if res.Throughput() <= 0 {
				t.Error("non-positive throughput")
			}
		})
	}
}

func TestRunCountCommitsExactly(t *testing.T) {
	w, err := harness.NewWorkload("rbtree", bench.Mix{UpdatePct: 60, KeyRange: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Config{Manager: "adaptive-improved-dynamic", Threads: 3, Seed: 1}
	const total = 500
	res, err := harness.RunCount(cfg, w, total)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != total {
		t.Errorf("commits = %d, want %d", res.Commits, total)
	}
	if res.Wall <= 0 {
		t.Error("non-positive wall time")
	}
}

func TestConfigUnknownManager(t *testing.T) {
	cfg := harness.Config{Manager: "bogus", Threads: 2}
	if _, err := cfg.NewManager(); err == nil {
		t.Error("unknown manager accepted")
	}
}

func TestVacationWorkloadRuns(t *testing.T) {
	w, err := harness.NewWorkload("vacation", bench.Mix{UpdatePct: 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Config{Manager: "polka", Threads: 4, Seed: 2}
	res, err := harness.RunTimed(cfg, w, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Error("no vacation commits")
	}
}

func TestFigureDriversSmoke(t *testing.T) {
	o := tinyOpts()
	o.Benchmarks = []string{"list"}
	type driver struct {
		name string
		fn   func(harness.Options) ([]harness.Table, error)
	}
	for _, d := range []driver{
		{"Fig2", harness.Fig2},
		{"Fig3", harness.Fig3},
		{"Fig4", harness.Fig4},
		{"Fig5", harness.Fig5},
		{"Extended", harness.Extended},
	} {
		d := d
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			tables, err := d.fn(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) != 1 {
				t.Fatalf("%d tables, want 1", len(tables))
			}
			var buf bytes.Buffer
			if err := tables[0].Render(&buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "list") {
				t.Errorf("rendered table missing benchmark name:\n%s", out)
			}
			if len(tables[0].Rows) == 0 {
				t.Error("table has no rows")
			}
		})
	}
}

func TestWindowVariantAndComparisonNames(t *testing.T) {
	if len(harness.WindowVariantNames()) != 5 {
		t.Errorf("window variants = %v", harness.WindowVariantNames())
	}
	cmp := harness.ComparisonManagerNames()
	want := map[string]bool{"polka": true, "greedy": true, "priority": true}
	found := 0
	for _, n := range cmp {
		if want[n] {
			found++
		}
	}
	if found != 3 {
		t.Errorf("comparison set %v missing classic managers", cmp)
	}
}

// TestRunCountQuotas: the fixed-work stop rule splits total across the
// threads with the remainder on the first ones, commits exactly total, and
// a total the threads cannot have committed is an error, not a result.
func TestRunCountQuotas(t *testing.T) {
	cfg := harness.Config{Manager: "polka", Threads: 3, Seed: 1}
	for _, total := range []int{7, 2, 0} {
		w, err := harness.NewWorkload("list", bench.Mix{UpdatePct: 100, KeyRange: 64}, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.RunCount(cfg, w, total)
		if err != nil || res.Commits != int64(total) {
			t.Errorf("RunCount(%d): %d commits, err %v", total, res.Commits, err)
		}
		if res.Threads != 3 || res.MaxAttempts < 1 && total > 0 {
			t.Errorf("RunCount(%d): summary %+v", total, res.Summary)
		}
	}
	w, err := harness.NewWorkload("list", bench.Mix{UpdatePct: 100, KeyRange: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := harness.RunCount(cfg, w, -1); err == nil {
		t.Errorf("RunCount(-1) reported success with %d commits", res.Commits)
	}
}
