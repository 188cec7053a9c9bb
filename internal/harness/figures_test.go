package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Threads) != 6 || o.Threads[5] != 32 {
		t.Errorf("Threads = %v", o.Threads)
	}
	if o.Duration <= 0 || o.Reps <= 0 {
		t.Error("duration/reps not defaulted")
	}
	if len(o.Benchmarks) != 4 {
		t.Errorf("Benchmarks = %v", o.Benchmarks)
	}
	if o.TotalTxs != 20000 || o.Fig5Threads != 32 || o.WindowN != 50 {
		t.Errorf("paper defaults wrong: %+v", o)
	}
	if o.KeyRange != 256 || o.Seed == 0 {
		t.Errorf("key range/seed defaults wrong: %+v", o)
	}
}

func TestOptionsRespectsOverrides(t *testing.T) {
	in := Options{
		Threads: []int{3}, Duration: time.Second, Reps: 7,
		Benchmarks: []string{"list"}, TotalTxs: 5, Fig5Threads: 2,
		WindowN: 9, KeyRange: 64, Seed: 99,
	}
	o := in.withDefaults()
	if o.Threads[0] != 3 || o.Duration != time.Second || o.Reps != 7 ||
		o.Benchmarks[0] != "list" || o.TotalTxs != 5 || o.Fig5Threads != 2 ||
		o.WindowN != 9 || o.KeyRange != 64 || o.Seed != 99 {
		t.Errorf("overrides lost: %+v", o)
	}
}

func TestThroughputMixMatchesPaper(t *testing.T) {
	// Figs. 2–4: random insertions and deletions with equal probability.
	mix := Options{}.withDefaults().throughputMix()
	if mix.UpdatePct != 100 {
		t.Errorf("UpdatePct = %d, want 100 (all updates, 50/50 ins/rem)", mix.UpdatePct)
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		Title:   "demo",
		Columns: []string{"manager", "M=1"},
		Rows:    [][]string{{"polka", "123"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "----", "manager", "polka", "123"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestInterleaveResolution(t *testing.T) {
	if got := (Config{}).interleave(); got != defaultInterleave {
		t.Errorf("default = %d", got)
	}
	if got := (Config{Interleave: -1}).interleave(); got != 0 {
		t.Errorf("disabled = %d", got)
	}
	if got := (Config{Interleave: 3}).interleave(); got != 3 {
		t.Errorf("explicit = %d", got)
	}
}

func TestStmOptions(t *testing.T) {
	if opts, inj, err := (Config{}).stmOptions(); len(opts) != 0 || inj != nil || err != nil {
		t.Error("default produced options, an injector, or an error")
	}
}

// TestStmOptionsBackend covers the engine-selection plumbing: the lazy
// backend builds a lazy runtime, unknown names are rejected before any
// runtime exists.
func TestStmOptionsBackend(t *testing.T) {
	opts, _, err := (Config{Backend: stm.BackendLazy}).stmOptions()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := cm.New("polka", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rt := stm.New(1, mgr, opts...); rt.Backend() != stm.BackendLazy {
		t.Errorf("backend = %q, want lazy", rt.Backend())
	}
	if opts, _, err := (Config{Backend: stm.BackendEager}).stmOptions(); err != nil || len(opts) != 1 {
		t.Errorf("explicit eager: opts=%d err=%v", len(opts), err)
	}
	if _, _, err := (Config{Backend: "htm"}).stmOptions(); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestFig5LevelsMatchPaper(t *testing.T) {
	if len(fig5Levels) != 3 {
		t.Fatalf("%d contention levels", len(fig5Levels))
	}
	want := []int{20, 60, 100}
	for i, lvl := range fig5Levels {
		if lvl.mix.UpdatePct != want[i] {
			t.Errorf("level %d = %d%%, want %d%%", i, lvl.mix.UpdatePct, want[i])
		}
	}
}
