package harness

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wincm/internal/stm"
	"wincm/internal/telemetry"
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
	if o.TotalTxs != 20000 || o.largestM() != 32 || o.WindowN != 50 {
		t.Errorf("paper defaults wrong: %+v", o)
	}
	if o.Seed == 0 || o.Manager != "adaptive-improved-dynamic" {
		t.Errorf("seed or manager default wrong: %+v", o)
	}
}

func TestOptionsRespectsOverrides(t *testing.T) {
	in := Options{
		Threads: []int{3}, Duration: time.Second, Reps: 7,
		Benchmarks: []string{"list"}, TotalTxs: 5, WindowN: 9, Seed: 99,
		Manager: "polka",
	}
	o := in.withDefaults()
	if o.Threads[0] != 3 || o.Duration != time.Second || o.Reps != 7 ||
		o.Benchmarks[0] != "list" || o.TotalTxs != 5 || o.WindowN != 9 ||
		o.Seed != 99 || o.Manager != "polka" {
		t.Errorf("overrides lost: %+v", o)
	}
}

// TestDriversValidateAfterDefaults: for a driver's caller a zero field means
// "default" and resolves clean; a negative or unknown one is an error that
// names the field, returned before any cell runs. Validate on its own fills
// nothing in, which is what lets winbench reject an explicit -reps 0.
func TestDriversValidateAfterDefaults(t *testing.T) {
	if _, err := (Options{}).resolve(); err != nil {
		t.Errorf("zero Options do not resolve: %v", err)
	}
	if err := (Options{}).Validate(); err == nil || !strings.Contains(err.Error(), "Duration") {
		t.Errorf("Validate filled defaults in: err = %v, want the zero Duration reported", err)
	}
	for _, c := range []struct {
		o    Options
		want string
	}{
		{Options{Duration: -time.Second}, "Duration"},
		{Options{Reps: -1}, "Reps"},
		{Options{TotalTxs: -1}, "TotalTxs"},
		{Options{WindowN: -5}, "WindowN"},
		{Options{Threads: []int{2, 0}}, "Threads"},
		{Options{Threads: []int{-1}}, "Threads"},
		{Options{Benchmarks: []string{"list", "nosuch"}}, "nosuch"},
		{Options{Manager: "nosuch"}, "nosuch"},
	} {
		for name, driver := range map[string]func(Options) ([]Table, error){
			"Fig2": Fig2, "TelemetryFig": TelemetryFig, "BTreeFig": BTreeFig,
		} {
			if _, err := driver(c.o); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s(%+v): err = %v, want one naming %q", name, c.o, err, c.want)
			}
		}
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

// TestStmOptions: a cell with a registry and no trace builds its runtime
// with no probe — watching a run does not change the program it runs — and
// the registry's verdict series read the runtime's own counts.
func TestStmOptions(t *testing.T) {
	const threads = 2
	reg := telemetry.NewRegistry()
	c := Config{Manager: "polka", Threads: threads, Telemetry: reg}
	mgr, err := c.NewManager()
	if err != nil {
		t.Fatal(err)
	}
	rt, _ := c.instrument(mgr)
	if rt.Probe() != nil {
		t.Error("a cell with telemetry and no trace installed a probe")
	}
	rt.SetYieldEvery(1)
	v := stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				th.Atomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
			}
		}(rt.Thread(i))
	}
	wg.Wait()
	verdicts, g := rt.Verdicts(), reg.Snapshot().Gauges
	for name, want := range map[string]int64{
		"wincm_resolve_abort_enemy_total": verdicts.AbortEnemy,
		"wincm_resolve_abort_self_total":  verdicts.AbortSelf,
		"wincm_resolve_wait_total":        verdicts.Wait,
		"wincm_cm_wait_ns_total":          verdicts.WaitNs,
	} {
		if got, ok := g[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (registered %v), want %d", name, got, ok, want)
		}
	}
}

// TestBTreeFigRendersOneTable: the btree figure is one table — a row per
// registered manager, an rbtree and a btree column per M.
func TestBTreeFigRendersOneTable(t *testing.T) {
	if testing.Short() {
		t.Skip("every-manager sweep is not short")
	}
	tables, err := BTreeFig(Options{Duration: 20 * time.Millisecond, Reps: 1, Threads: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	tbl := tables[0]
	if got, want := strings.Join(tbl.Columns, ","), "manager,rbtree M=2,btree M=2,rbtree M=4,btree M=4"; got != want {
		t.Errorf("columns = %s, want %s", got, want)
	}
	names := ManagerNames()
	if len(tbl.Rows) != len(names) {
		t.Fatalf("got %d rows, want %d (one per registered manager)", len(tbl.Rows), len(names))
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) || row[0] != names[i] {
			t.Errorf("row %d = %v, want %s and %d cells", i, row, names[i], len(tbl.Columns)-1)
		}
	}
}

// TestFig5RunsAtLargestM: Figure 5 has no thread count of its own; it runs
// at the largest entry of the Threads sweep and says so in its title.
func TestFig5RunsAtLargestM(t *testing.T) {
	tables, err := Fig5(Options{Benchmarks: []string{"list"}, Threads: []int{1, 2}, TotalTxs: 40, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || !strings.Contains(tables[0].Title, "M=2 ") {
		t.Errorf("tables = %+v, want one titled at M=2", tables)
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

// countingGrid returns a grid over o whose cells are canned results, and the
// log of every (benchmark, manager, M, seed) it was asked to run.
func countingGrid(o Options) (*grid, *[]string) {
	g := newGrid(o)
	var log []string
	g.run = func(benchmark, manager string, threads int, seed uint64) (Result, error) {
		log = append(log, fmt.Sprintf("%s/%s/M=%d/seed=%d", benchmark, manager, threads, seed))
		return Result{}, nil
	}
	return g, &log
}

// TestAllRunsEachCellOnce: -fig all at the default options renders Figures
// 2, 3, 4 and the extended metrics off one grid, so every distinct
// (benchmark, manager, M, rep) timed cell is built exactly once — 384 of
// them, the union of the two manager lists, where running each figure's own
// sweep was 3 × 240 + 20 = 740. Figure 5's fixed-work cells are counted
// runs outside the grid at the largest M; they are shrunk here, not faked.
func TestAllRunsEachCellOnce(t *testing.T) {
	g, log := countingGrid(Options{TotalTxs: 8})
	tables, err := g.all()
	if err != nil {
		t.Fatal(err)
	}
	if want := 5 * len(BenchmarkNames()); len(tables) != want {
		t.Errorf("%d tables, want %d (five figures × four benchmarks)", len(tables), want)
	}
	seen := map[string]int{}
	for _, cell := range *log {
		seen[cell]++
	}
	for cell, n := range seen {
		if n != 1 {
			t.Errorf("cell %s built %d times", cell, n)
		}
	}
	const benchmarks, managers, threads, reps = 4, 8, 6, 2
	if want := benchmarks * managers * threads * reps; len(seen) != want {
		t.Errorf("%d distinct timed cells, want %d", len(seen), want)
	}
}

// TestFiguresAloneRunOnlyTheirCells: Fig 3 and Fig 4 read the same cells, so
// either alone runs the comparison managers' sweep and nothing else, and
// the second costs nothing once the first has run; both still produce one
// table per benchmark with the comparison managers as rows.
func TestFiguresAloneRunOnlyTheirCells(t *testing.T) {
	o := Options{Benchmarks: []string{"list", "rbtree"}, Threads: []int{2, 4}, Reps: 3}
	g, log := countingGrid(o)
	fig3, err := g.fig3()
	if err != nil {
		t.Fatal(err)
	}
	want := len(o.Benchmarks) * len(ComparisonManagerNames()) * len(o.Threads) * o.Reps
	if len(*log) != want {
		t.Errorf("Fig 3 alone ran %d cells, want %d", len(*log), want)
	}
	fig4, err := g.fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(*log) != want {
		t.Errorf("Fig 4 after Fig 3 ran %d more cells, want none", len(*log)-want)
	}
	for _, tables := range [][]Table{fig3, fig4} {
		if len(tables) != len(o.Benchmarks) {
			t.Fatalf("%d tables, want one per benchmark", len(tables))
		}
		for _, tbl := range tables {
			if len(tbl.Rows) != len(ComparisonManagerNames()) || len(tbl.Columns) != 1+len(o.Threads) {
				t.Errorf("%q: %d rows × %d columns", tbl.Title, len(tbl.Rows), len(tbl.Columns))
			}
		}
	}
}

// TestExtendedAveragesOverReps: the extended metrics used to run one rep
// whatever -reps said; they now read the grid's largest-M cells, all Reps of
// them, on the same seeds as every other figure.
func TestExtendedAveragesOverReps(t *testing.T) {
	g, log := countingGrid(Options{Benchmarks: []string{"list"}, Threads: []int{2, 4}, Reps: 5, Seed: 9})
	if _, err := g.extended(); err != nil {
		t.Fatal(err)
	}
	if want := len(ComparisonManagerNames()) * 5; len(*log) != want {
		t.Fatalf("extended ran %d cells, want %d (five reps per manager)", len(*log), want)
	}
	for rep, cell := range (*log)[:5] {
		if want := fmt.Sprintf("list/online-dynamic/M=4/seed=%d", 9+rep*1_000_003); cell != want {
			t.Errorf("rep %d ran %s, want %s", rep, cell, want)
		}
	}
}
