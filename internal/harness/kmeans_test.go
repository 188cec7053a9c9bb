package harness_test

import (
	"testing"
	"time"

	"wincm/internal/bench"
	"wincm/internal/harness"
)

// TestKmeansWorkloadIntegration: the extension workload runs under the
// harness with conservation verification.
func TestKmeansWorkloadIntegration(t *testing.T) {
	for _, pct := range []int{20, 60, 100} {
		w, err := harness.NewWorkload("kmeans", bench.Mix{UpdatePct: pct}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != "kmeans" {
			t.Fatalf("name = %q", w.Name())
		}
		cfg := harness.Config{Manager: "online-dynamic", Threads: 4, WindowN: 10, Seed: 5}
		res, err := harness.RunTimed(cfg, w, 40*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if res.Commits == 0 {
			t.Error("no kmeans commits")
		}
	}
}

// TestKmeansRunCount: fixed-work mode conserves points too.
func TestKmeansRunCount(t *testing.T) {
	w, err := harness.NewWorkload("kmeans", bench.Mix{UpdatePct: 100}, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Config{Manager: "polka", Threads: 3, Seed: 6}
	res, err := harness.RunCount(cfg, w, 600)
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits != 600 {
		t.Errorf("commits = %d", res.Commits)
	}
}
