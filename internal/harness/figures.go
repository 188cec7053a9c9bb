package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"wincm/internal/bench"
	"wincm/internal/cm"
	"wincm/internal/core"
	"wincm/internal/stats"
	"wincm/internal/stm"
	"wincm/internal/telemetry"
)

// WindowVariantNames lists the paper's STM-runnable window variants
// (Fig. 2's series).
func WindowVariantNames() []string {
	names := make([]string, 0, len(core.Variants()))
	for _, v := range core.Variants() {
		names = append(names, v.String())
	}
	return names
}

// ManagerNames lists every registered contention manager — the 5 baselines
// (Backoff, Greedy, Polka, Priority, Timestamp) plus the 5 window-based
// variants — in sorted order.
func ManagerNames() []string {
	names := cm.Names()
	sort.Strings(names)
	return names
}

// ComparisonManagerNames lists Fig. 3–5's series: the two best window
// variants against Polka, Greedy and Priority.
func ComparisonManagerNames() []string {
	return []string{"online-dynamic", "adaptive-improved-dynamic", "polka", "greedy", "priority"}
}

// Options parameterize the figure drivers. The zero value is filled with
// CI-friendly defaults; PaperScale restores the paper's regime.
type Options struct {
	// Threads is the M sweep of every figure that sweeps M; Fig. 5, the
	// extended metrics and the single-run figures (telemetry, trace) run
	// at its largest entry. Default {1, 2, 4, 8, 16, 32}.
	Threads []int
	// Duration is each timed cell's run length. Default 300ms
	// (paper: 10 s).
	Duration time.Duration
	// Reps averages each cell over this many runs. Default 2 (paper: 6).
	Reps int
	// Benchmarks to include. Default all four.
	Benchmarks []string
	// TotalTxs is Fig. 5's fixed work. Default 20000 (the paper's value).
	TotalTxs int
	// Seed makes runs reproducible.
	Seed uint64
	// Hub, when non-nil, receives a fresh telemetry registry for every
	// experiment cell, so a long figure sweep is scrapeable live: the
	// winbench -telemetry-addr endpoint always serves the cell currently
	// running.
	Hub *telemetry.Hub
	// Manager is the manager the single-run figures (TelemetryFig,
	// TraceFig) watch. Default adaptive-improved-dynamic, the variant with
	// the most internal machinery to observe.
	Manager string
}

// Config builds one experiment cell's Config from the sweep options. With
// a Hub attached, every cell gets a fresh telemetry registry and installs
// it as the one live scrapes read. The single-run figures (TelemetryFig,
// TraceFig) build their cells through it too, so they inherit the same
// telemetry wiring the figure sweeps get.
func (o Options) Config(manager string, threads int, seed uint64) Config {
	o = o.withDefaults()
	cfg := Config{
		Manager: manager,
		Threads: threads,
		Seed:    seed,
	}
	if o.Hub != nil {
		cfg.Telemetry = telemetry.NewRegistry()
		o.Hub.Install(cfg.Telemetry)
	}
	return cfg
}

// withDefaults fills every field left at its zero value. A negative value
// is not "unset": it stays, and Validate reports it.
func (o Options) withDefaults() Options {
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8, 16, 32}
	}
	if o.Duration == 0 {
		o.Duration = 300 * time.Millisecond
	}
	if o.Reps == 0 {
		o.Reps = 2
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = BenchmarkNames()
	}
	if o.TotalTxs == 0 {
		o.TotalTxs = 20000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Manager == "" {
		o.Manager = "adaptive-improved-dynamic"
	}
	return o
}

// Validate reports the first setting no cell can run with, naming the field
// and the winbench flag that sets it. It judges the options as they stand
// and fills nothing in: the figure drivers call it on defaulted options
// (resolve), so a zero field there means "default"; winbench calls it on
// what its flags hold, every one of which has a positive default, so an
// explicit -reps 0 is an error instead of a silent 2.
func (o Options) Validate() error {
	if o.Duration <= 0 {
		return fmt.Errorf("harness: Duration (-dur) must be positive (got %v)", o.Duration)
	}
	for _, c := range []struct {
		name   string
		v, min int
	}{
		{"Reps (-reps)", o.Reps, 1},
		{"TotalTxs (-total)", o.TotalTxs, 1},
	} {
		if c.v < c.min {
			return fmt.Errorf("harness: %s must be >= %d (got %d)", c.name, c.min, c.v)
		}
	}
	for _, m := range o.Threads {
		if m < 1 || m > stm.MaxThreads {
			return fmt.Errorf("harness: Threads (-threads) entries must be in [1, %d] (got %d)", stm.MaxThreads, m)
		}
	}
	for _, b := range o.Benchmarks {
		if _, err := NewWorkload(b, o.throughputMix(), o.Seed); err != nil {
			return fmt.Errorf("harness: Benchmarks (-bench): %v", err)
		}
	}
	if o.Manager != "" {
		if _, _, err := core.NewNamed(o.Manager, 1, 0); err != nil {
			return fmt.Errorf("harness: Manager (-manager): %v", err)
		}
	}
	return nil
}

// resolve is how every figure driver starts: defaults filled, then checked.
func (o Options) resolve() (Options, error) {
	o = o.withDefaults()
	return o, o.Validate()
}

// largestM is the M of every figure that runs at one thread count: the
// largest entry of Threads.
func (o Options) largestM() int { return slices.Max(o.Threads) }

// throughputMix is the Figs. 2–4 workload: randomly selected insertions
// and deletions with equal probability, as in the paper.
func (o Options) throughputMix() bench.Mix {
	return bench.HighContention
}

// Table is a rendered experiment result: one row per series (contention
// manager), one column per sweep point.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("-", len(t.Title))); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// reps runs one experiment cell Reps times on the sweep's seed schedule —
// every figure's repetitions draw the same seeds — and returns each
// repetition's Result.
func (o Options) reps(cell func(seed uint64) (Result, error)) ([]Result, error) {
	out := make([]Result, 0, o.Reps)
	for rep := 0; rep < o.Reps; rep++ {
		res, err := cell(o.Seed + uint64(rep)*1_000_003)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// timed builds the named benchmark under the throughput mix, seeded like
// cfg, and runs one timed cell of it, taking points registry snapshots
// into Result.Series (0 = none).
func (o Options) timed(benchmark string, cfg Config, points int) (Result, error) {
	w, err := NewWorkload(benchmark, o.throughputMix(), cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	return run(cfg, w, o.Duration, math.MaxInt, points)
}

// mean averages f over a cell's repetitions.
func mean(rs []Result, f func(Result) float64) float64 {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = f(r)
	}
	return stats.Mean(vals)
}

// grid is the timed (benchmark, manager, M) cells of one Options, each run
// Reps times the first time a figure asks for it and remembered after:
// Figures 2, 3 and 4 and the extended metrics are renderings of the same
// runs, the way the paper reads throughput and aborts per commit off one
// set of executions.
type grid struct {
	o     Options
	run   func(benchmark, manager string, threads int, seed uint64) (Result, error)
	cells map[gridKey][]Result
}

type gridKey struct {
	benchmark, manager string
	threads            int
}

// newGrid returns an empty grid over o with its defaults filled in.
func newGrid(o Options) *grid {
	o = o.withDefaults()
	g := &grid{o: o, cells: make(map[gridKey][]Result)}
	g.run = func(benchmark, manager string, threads int, seed uint64) (Result, error) {
		return o.timed(benchmark, o.Config(manager, threads, seed), 0)
	}
	return g
}

// cell returns the Reps results of one grid cell, running them on first use.
func (g *grid) cell(benchmark, manager string, threads int) ([]Result, error) {
	k := gridKey{benchmark, manager, threads}
	if rs, ok := g.cells[k]; ok {
		return rs, nil
	}
	rs, err := g.o.reps(func(seed uint64) (Result, error) {
		return g.run(benchmark, manager, threads, seed)
	})
	if err != nil {
		return nil, err
	}
	g.cells[k] = rs
	return rs, nil
}

// sweep builds one table per benchmark, titled by title with the benchmark's
// name filled in: rows = managers, columns = thread counts, cells = mean of
// f over Reps runs, printed with verb.
func (g *grid) sweep(title, verb string, managers []string, f func(Result) float64) ([]Table, error) {
	var tables []Table
	for _, b := range g.o.Benchmarks {
		t := Table{Title: fmt.Sprintf(title, b)}
		t.Columns = append(t.Columns, "manager")
		for _, m := range g.o.Threads {
			t.Columns = append(t.Columns, fmt.Sprintf("M=%d", m))
		}
		for _, mgr := range managers {
			row := []string{mgr}
			for _, m := range g.o.Threads {
				rs, err := g.cell(b, mgr, m)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf(verb, mean(rs, f)))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func (g *grid) fig2() ([]Table, error) {
	return g.sweep("Fig 2: window-variant throughput — %s (commits/s)", "%.0f",
		WindowVariantNames(), Result.Throughput)
}

func (g *grid) fig3() ([]Table, error) {
	return g.sweep("Fig 3: window vs classic managers, throughput — %s (commits/s)", "%.0f",
		ComparisonManagerNames(), Result.Throughput)
}

func (g *grid) fig4() ([]Table, error) {
	return g.sweep("Fig 4: aborts per commit — %s", "%.3f",
		ComparisonManagerNames(), Result.AbortsPerCommit)
}

// extended reads the Section-IV metrics off the grid's largest-M column.
func (g *grid) extended() ([]Table, error) {
	m := g.o.largestM()
	var tables []Table
	for _, b := range g.o.Benchmarks {
		t := Table{
			Title:   fmt.Sprintf("Extended metrics — %s, M=%d", b, m),
			Columns: []string{"manager", "wasted-work", "repeat-aborts/commit", "mean-commit-µs", "mean-response-µs"},
		}
		for _, mgr := range ComparisonManagerNames() {
			rs, err := g.cell(b, mgr, m)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				mgr,
				fmt.Sprintf("%.3f", mean(rs, Result.WastedWork)),
				fmt.Sprintf("%.3f", mean(rs, func(r Result) float64 {
					if r.Commits == 0 {
						return 0
					}
					return float64(r.RepeatAborts) / float64(r.Commits)
				})),
				fmt.Sprintf("%.1f", mean(rs, func(r Result) float64 { return float64(r.MeanCommitDur().Nanoseconds()) / 1e3 })),
				fmt.Sprintf("%.1f", mean(rs, func(r Result) float64 { return float64(r.MeanResponse().Nanoseconds()) / 1e3 })),
			})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// fig5 runs Figure 5's fixed-work cells. They are counted, not timed, and
// sweep contention levels instead of M, so they are not grid cells.
func (g *grid) fig5() ([]Table, error) {
	o, m := g.o, g.o.largestM()
	var tables []Table
	for _, b := range o.Benchmarks {
		t := Table{Title: fmt.Sprintf("Fig 5: time to commit %d txs, M=%d — %s (seconds)", o.TotalTxs, m, b)}
		t.Columns = []string{"manager"}
		for _, lvl := range fig5Levels {
			t.Columns = append(t.Columns, lvl.name)
		}
		for _, mgr := range ComparisonManagerNames() {
			row := []string{mgr}
			for _, lvl := range fig5Levels {
				rs, err := o.reps(func(seed uint64) (Result, error) {
					w, err := NewWorkload(b, lvl.mix, seed)
					if err != nil {
						return Result{}, err
					}
					return RunCount(o.Config(mgr, m, seed), w, o.TotalTxs)
				})
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.3f", mean(rs, func(r Result) float64 { return r.Wall.Seconds() })))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// fig5Levels maps the paper's contention levels to update percentages.
var fig5Levels = []struct {
	name string
	mix  bench.Mix
}{
	{"low(20%)", bench.LowContention},
	{"medium(60%)", bench.MediumContention},
	{"high(100%)", bench.HighContention},
}

// all renders Figures 2–5 and the extended metrics off the one grid, in
// that order; cells two of them share are run once.
func (g *grid) all() ([]Table, error) {
	var tables []Table
	for _, view := range []func() ([]Table, error){g.fig2, g.fig3, g.fig4, g.fig5, g.extended} {
		ts, err := view()
		if err != nil {
			return nil, err
		}
		tables = append(tables, ts...)
	}
	return tables, nil
}

// view is the drivers' shared entry: o resolved, then one rendering of its
// grid.
func view(o Options, render func(*grid) ([]Table, error)) ([]Table, error) {
	o, err := o.resolve()
	if err != nil {
		return nil, err
	}
	return render(newGrid(o))
}

// Fig2 reproduces Figure 2: throughput of the five window-based variants
// on each benchmark across the thread sweep.
func Fig2(o Options) ([]Table, error) { return view(o, (*grid).fig2) }

// Fig3 reproduces Figure 3: best window variants vs Polka, Greedy and
// Priority (throughput).
func Fig3(o Options) ([]Table, error) { return view(o, (*grid).fig3) }

// Fig4 reproduces Figure 4: aborts per commit for the Fig. 3 manager set.
func Fig4(o Options) ([]Table, error) { return view(o, (*grid).fig4) }

// Fig5 reproduces Figure 5: total time to commit TotalTxs transactions
// at the largest of Threads under low/medium/high contention.
func Fig5(o Options) ([]Table, error) { return view(o, (*grid).fig5) }

// Extended reports the Section-IV future-work metrics (wasted work,
// repeat aborts per commit, mean committed duration, mean response time)
// at the largest configured thread count, averaged over Reps.
func Extended(o Options) ([]Table, error) { return view(o, (*grid).extended) }

// All reproduces Figures 2–5 and the extended metrics in that order. The
// figures share one grid, so each distinct (benchmark, manager, M, rep) is
// run once: the union of the window variants and the comparison managers,
// not once per figure.
func All(o Options) ([]Table, error) { return view(o, (*grid).all) }
