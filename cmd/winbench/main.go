// Command winbench reproduces the paper's experimental figures on the STM:
//
//	winbench -fig 2            window-variant throughput (Fig. 2)
//	winbench -fig 3            window vs Polka/Greedy/Priority throughput (Fig. 3)
//	winbench -fig 4            aborts per commit (Fig. 4)
//	winbench -fig 5            time to commit 20000 transactions (Fig. 5)
//	winbench -fig ext          Section-IV extension metrics
//	winbench -fig all          everything above, each distinct cell run once
//	winbench -fig trace        ASCII execution timeline of one traced run
//	winbench -fig telemetry    interval time series + histogram quantiles
//	winbench -fig btree        key-level (semantic) vs tvar-granularity conflict detection
//
// Every figure reads the one flag set: -threads is the M sweep, and the
// figures that run at one M (5, ext, telemetry, trace) take its largest
// entry. Flags that only make sense for a figure they don't select
// (-trace-sample or -trace-out without -fig trace, -manager without
// -fig telemetry or -fig trace, ...) fail fast, as do values no cell can
// run with (-reps 0, -dur -1s) and stray arguments.
//
// -fig trace is the one way to read the transaction flight recorder: it
// runs one recorded cell (-trace-sample sets its 1-in-N sampling), prints
// the run's totals beside the recorded counts, the timeline, the hottest
// conflict pairs and variables and the conflict graph, and with -trace-out
// writes the recording as Chrome trace-event JSON for Perfetto.
//
// Defaults are CI-friendly; -paper restores the published regime
// (10-second runs averaged over 6 repetitions, threads up to 32).
//
// -telemetry-addr starts the live observability endpoint and turns every
// run into an inspectable service: Prometheus text on /metrics and the full
// net/http/pprof surface (CPU, heap, block, mutex profiles) on
// /debug/pprof/. Each experiment cell installs a fresh registry, so a
// scrape always reads the cell in flight.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"wincm/internal/harness"
	"wincm/internal/telemetry"
	"wincm/internal/txtrace"
)

// driver renders one figure's tables.
type driver func(harness.Options) ([]harness.Table, error)

// figures is the one table of table-printing -fig values, in help order.
// trace is driven apart (traceRun): it prints a timeline, not tables.
var figures = []struct {
	name   string
	driver driver
}{
	{"2", harness.Fig2},
	{"3", harness.Fig3},
	{"4", harness.Fig4},
	{"5", harness.Fig5},
	{"ext", harness.Extended},
	{"all", harness.All},
	{"telemetry", harness.TelemetryFig},
	{"btree", harness.BTreeFig},
}

// figureNames lists every value -fig accepts, for the help text and the
// unknown-figure error.
func figureNames() string {
	var b strings.Builder
	for _, f := range figures {
		b.WriteString(f.name + ", ")
	}
	return strings.TrimSuffix(b.String(), ", ") + " or trace"
}

// figureDriver returns the table driver -fig name selects — nil for trace —
// and whether name is a figure at all.
func figureDriver(name string) (driver, bool) {
	for _, f := range figures {
		if f.name == name {
			return f.driver, true
		}
	}
	return nil, name == "trace"
}

// flagConflict reports the first explicitly set flag (set holds their
// names) that would silently do nothing under figure fig: every flag below
// configures a figure -fig selects.
func flagConflict(set map[string]bool, fig string) (err error) {
	requireFig := func(figs []string, names ...string) {
		for _, n := range names {
			if err == nil && set[n] && !slices.Contains(figs, fig) {
				err = fmt.Errorf("-%s has no effect without -fig %s", n, strings.Join(figs, " or -fig "))
			}
		}
	}
	requireFig([]string{"telemetry", "trace"}, "manager")
	requireFig([]string{"trace"}, "trace-sample", "trace-out")
	// -fig btree pins its benchmark pair (rbtree vs btree), so -bench
	// would silently be overridden.
	if err == nil && fig == "btree" && set["bench"] {
		err = fmt.Errorf("-bench has no effect with -fig btree (the btree figure runs the rbtree/btree pair)")
	}
	return err
}

// invocation is one parsed and checked command line.
type invocation struct {
	fig         string
	driver      driver // nil: -fig trace
	opts        harness.Options
	telAddr     string // -telemetry-addr; main starts the endpoint and sets opts.Hub
	traceSample int
	traceOut    string
}

// parseArgs turns the command line into an invocation and fails fast —
// before any file, socket or cell — on everything that would otherwise be
// silently replaced or ignored: stray arguments, an unknown figure, flags
// that configure a mode nothing enabled (flagConflict) and values no cell
// can run with (harness.Options.Validate). Usage and flag-syntax errors go
// to usage.
func parseArgs(args []string, usage io.Writer) (invocation, error) {
	fs := flag.NewFlagSet("winbench", flag.ContinueOnError)
	fs.SetOutput(usage)
	var (
		fig     = fs.String("fig", "all", "figure to reproduce: "+figureNames())
		benches = fs.String("bench", "", "comma-separated benchmarks (default all: list,rbtree,skiplist,vacation)")
		threads = fs.String("threads", "", "comma-separated thread counts; figures 5, ext, telemetry and trace run at the largest (default 1,2,4,8,16,32)")
		dur     = fs.Duration("dur", 300*time.Millisecond, "duration of each timed run")
		reps    = fs.Int("reps", 2, "repetitions per cell")
		total   = fs.Int("total", 20000, "transactions for the fig-5 fixed-work runs")
		seed    = fs.Uint64("seed", 1, "master seed")
		paper   = fs.Bool("paper", false, "use the paper's full regime (10s runs × 6 reps)")

		manager = fs.String("manager", "", "contention manager the -fig telemetry or -fig trace run watches (default adaptive-improved-dynamic)")
		telAddr = fs.String("telemetry-addr", "", "serve live telemetry on this address: Prometheus /metrics, net/http/pprof /debug/pprof/ (empty = off)")

		traceSample = fs.Int("trace-sample", 1, "record one logical transaction in N (1 = every transaction); -fig trace only")
		traceOut    = fs.String("trace-out", "", "write the trace as Chrome trace-event JSON to this file (open it in ui.perfetto.dev); -fig trace only")
	)
	if err := fs.Parse(args); err != nil {
		return invocation{}, err
	}
	if fs.NArg() != 0 {
		return invocation{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	drv, ok := figureDriver(*fig)
	if !ok {
		return invocation{}, fmt.Errorf("unknown figure %q (want %s)", *fig, figureNames())
	}
	if err := flagConflict(set, *fig); err != nil {
		return invocation{}, err
	}
	if *traceSample < 1 {
		return invocation{}, fmt.Errorf("-trace-sample must be >= 1 (got %d)", *traceSample)
	}

	opts := harness.Options{
		Duration: *dur,
		Reps:     *reps,
		TotalTxs: *total,
		Seed:     *seed,
		Manager:  *manager,
	}
	if *paper {
		opts.Duration = 10 * time.Second
		opts.Reps = 6
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	var err error
	if opts.Threads, err = threadList(*threads); err != nil {
		return invocation{}, err
	}
	if err := opts.Validate(); err != nil {
		return invocation{}, err
	}
	return invocation{fig: *fig, driver: drv, opts: opts, telAddr: *telAddr, traceSample: *traceSample, traceOut: *traceOut}, nil
}

func main() {
	inv, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatalf("%v", err)
	}
	opts := inv.opts
	if inv.telAddr != "" {
		hub := telemetry.NewHub()
		srv, bound, err := telemetry.Serve(inv.telAddr, hub)
		if err != nil {
			fatalf("telemetry: %v", err)
		}
		defer srv.Close()
		opts.Hub = hub
		fmt.Fprintf(os.Stderr, "winbench: telemetry on http://%s (/metrics, /debug/pprof/)\n", bound)
	}
	if inv.driver == nil {
		var traceFile *os.File
		if inv.traceOut != "" {
			// Create up front so an unwritable path fails before the run
			// spends its duration, not after.
			f, err := os.Create(inv.traceOut)
			if err != nil {
				fatalf("-trace-out: %v", err)
			}
			traceFile = f
		}
		traceRun(opts, inv.traceSample, traceFile)
		return
	}
	tables, err := inv.driver(opts)
	if err != nil {
		fatalf("fig %s: %v", inv.fig, err)
	}
	for t := range tables {
		if err := tables[t].Render(os.Stdout); err != nil {
			fatalf("render: %v", err)
		}
	}
}

// traceRun executes harness.TraceFig's flight-recorded run, recording one
// transaction in sample, and prints the run's totals beside the recorded
// event counts, the execution timeline, the hottest conflicting
// thread pairs, the hot-variable heatmap and the thread conflict graph.
// With a trace file it additionally dumps the Chrome trace-event JSON for
// Perfetto.
func traceRun(opts harness.Options, sample int, out *os.File) {
	res, label, err := harness.TraceFig(opts, sample)
	if err != nil {
		fatalf("trace: %v", err)
	}
	tr := res.Trace

	// The run's totals are the workers' counters; the recorded ones are
	// the sampled transactions' events that fit in the recorder's budget.
	counts := tr.Counts()
	fmt.Printf("traced %s, %v (1-in-%d sampling)\n", label, opts.Duration, tr.Sample)
	fmt.Printf("  run:      %d commits, %d aborts\n", res.Commits, res.Aborts)
	fmt.Printf("  recorded: %d commits, %d aborts, %d conflicts; %d transactions unrecorded past the %d MiB budget",
		counts[txtrace.EvCommit], counts[txtrace.EvAbort], counts[txtrace.EvConflict], tr.Unrecorded, txtrace.Budget>>20)
	if tr.FramesUnrecorded > 0 {
		fmt.Printf(", and %d frame advances", tr.FramesUnrecorded)
	}
	fmt.Print("\n\n")
	fmt.Println("timeline (* mostly commits, x mostly aborts, ~ conflicts only):")
	if err := tr.Timeline(os.Stdout, 72); err != nil {
		fatalf("trace: %v", err)
	}
	cs := tr.Conflicts()
	fmt.Println("\nhottest conflict pairs (attacker → enemy):")
	for _, p := range cs.Edges[:min(8, len(cs.Edges))] {
		fmt.Printf("  T%02d → T%02d: %d\n", p.From, p.To, p.Count)
	}
	fmt.Println("\nhottest variables (by abort attribution):")
	for _, v := range tr.Heatmap(8) {
		fmt.Printf("  0x%012x: %4d aborts, %5d conflicts, %6d opens, %v waited\n",
			v.Var, v.Aborts, v.Conflicts, v.Opens, v.Waits.Round(time.Microsecond))
	}
	fmt.Printf("\nconflict graph: %d threads, %d edges, max degree %d (paper's C), greedy colors %d; %d conflicts, %d aborting\n",
		cs.Threads, cs.Graph.Edges(), cs.MaxDegree, cs.Colors, cs.Conflicts, cs.Aborts)

	if out != nil {
		if err := tr.WriteChromeTrace(out); err != nil {
			fatalf("trace: writing %s: %v", out.Name(), err)
		}
		if err := out.Close(); err != nil {
			fatalf("trace: closing %s: %v", out.Name(), err)
		}
		fmt.Printf("\nchrome trace written to %s (open in ui.perfetto.dev)\n", out.Name())
	}
}

// threadList parses -threads' comma-separated list; empty means unset.
// The entries' range is Options.Validate's to check.
func threadList(csv string) ([]int, error) {
	if csv == "" {
		return nil, nil
	}
	var ms []int
	for _, t := range strings.Split(csv, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil {
			return nil, fmt.Errorf("bad -threads entry %q", t)
		}
		ms = append(ms, m)
	}
	return ms, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "winbench: "+format+"\n", args...)
	os.Exit(1)
}
