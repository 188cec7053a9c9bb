package harness

import (
	"strings"
	"testing"
	"time"
)

// chaosShortManagers is the quick subset run in -short mode: one classic
// policy, one priority-accumulating policy, and one window variant —
// enough to exercise the three distinct Resolve code paths under fault
// load without paying for the full 18-manager matrix.
var chaosShortManagers = []string{"polka", "greedy", "online-dynamic"}

// TestChaosGracefulDegradation is the acceptance check: under stall
// injection every manager must keep committing (no permanently stuck
// transaction — the watchdog proves quiescence inside RunTimed) and the
// workload's invariants must hold afterward.
func TestChaosGracefulDegradation(t *testing.T) {
	managers := ChaosManagerNames()
	benchmarks := chaosBenchmarks()
	if testing.Short() {
		managers = chaosShortManagers
		benchmarks = []string{"list"}
	}
	o := Options{Duration: 30 * time.Millisecond, Seed: 7}.withDefaults()
	o.Chaos = true
	for _, b := range benchmarks {
		for _, mgr := range managers {
			b, mgr := b, mgr
			t.Run(b+"/"+mgr, func(t *testing.T) {
				t.Parallel()
				res, err := o.timed(b, o.Config(mgr, chaosSweepThreads, o.Seed))
				if err != nil {
					t.Fatal(err)
				}
				if res.Commits == 0 {
					t.Error("no transactions committed under fault injection")
				}
				if res.Stalls+res.SpuriousAborts+res.Delays+res.Perturbs == 0 {
					t.Error("chaos cell injected no faults at all")
				}
			})
		}
	}
}

// TestChaosSweepRendersMatrix runs the sweep end-to-end on a reduced
// matrix and checks the table shape: one table per benchmark and thread
// count (every -threads entry is honoured, not only a lone one), one row
// per registered manager.
func TestChaosSweepRendersMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix sweep is not short")
	}
	o := Options{Duration: 20 * time.Millisecond, Seed: 3, Benchmarks: []string{"list"}, Threads: []int{2, 4}}
	tables, err := ChaosSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || !strings.Contains(tables[0].Title, "M=2") || !strings.Contains(tables[1].Title, "M=4") {
		t.Fatalf("got %d tables, want one for M=2 and one for M=4", len(tables))
	}
	if want := len(ChaosManagerNames()); len(tables[0].Rows) != want {
		t.Errorf("got %d rows, want %d (one per registered manager)", len(tables[0].Rows), want)
	}
	var sb strings.Builder
	if err := tables[0].Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "wdTrips") {
		t.Error("rendered table missing watchdog column")
	}
}

// TestChaosSeedReproducibility: the same chaos seed must reproduce the
// same fault schedule. Run single-threaded with a fixed transaction count
// and no deadline budget so execution is deterministic end to end, then
// compare every robustness counter.
func TestChaosSeedReproducibility(t *testing.T) {
	run := func(seed uint64) Result {
		t.Helper()
		o := Options{Seed: 5, ChaosSeed: seed, Chaos: true,
			MaxAttempts: 64, TxDeadline: -1}.withDefaults() // deadline off: wall-clock is nondeterministic
		w, err := NewWorkload("list", o.throughputMix(), o.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg := o.Config("polka", 1, o.Seed)
		// A wall-clock watchdog rescue would hand out the fallback token at
		// a nondeterministic point and change which probe events draw from
		// the rng streams; park it so the schedule is a pure function of
		// the seed.
		cfg.WatchdogInterval = time.Hour
		res, err := RunCount(cfg, w, 400)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(11), run(11)
	if a.Stalls != b.Stalls || a.SpuriousAborts != b.SpuriousAborts ||
		a.Delays != b.Delays || a.Perturbs != b.Perturbs {
		t.Errorf("same seed diverged: %+v vs %+v", a.Summary, b.Summary)
	}
	if a.Stalls+a.SpuriousAborts+a.Delays == 0 {
		t.Error("seeded run injected no faults; reproducibility check is vacuous")
	}
	c := run(12)
	if a.Stalls == c.Stalls && a.SpuriousAborts == c.SpuriousAborts &&
		a.Delays == c.Delays && a.Perturbs == c.Perturbs {
		t.Error("different seeds produced identical fault schedules (suspicious)")
	}
}

// TestChaosOffLeavesCountersZero: a plain run must report zero robustness
// counters — the hooks are genuinely disabled, not merely quiet.
func TestChaosOffLeavesCountersZero(t *testing.T) {
	o := Options{Seed: 9}.withDefaults()
	w, err := NewWorkload("list", o.throughputMix(), o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCount(o.Config("polka", 2, o.Seed), w, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalls != 0 || res.SpuriousAborts != 0 || res.Delays != 0 ||
		res.Perturbs != 0 || res.WatchdogTrips != 0 || res.FallbackEntries != 0 {
		t.Errorf("chaos-off run reported robustness activity: %+v", res.Summary)
	}
}
