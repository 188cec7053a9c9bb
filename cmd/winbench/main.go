// Command winbench reproduces the paper's experimental figures on the STM:
//
//	winbench -fig 2            window-variant throughput (Fig. 2)
//	winbench -fig 3            window vs Polka/Greedy/Priority throughput (Fig. 3)
//	winbench -fig 4            aborts per commit (Fig. 4)
//	winbench -fig 5            time to commit 20000 transactions (Fig. 5)
//	winbench -fig ext          Section-IV extension metrics
//	winbench -fig all          everything above, each distinct cell run once
//	winbench -fig trace        ASCII execution timeline of one traced run
//	winbench -fig chaos        robustness matrix under fault injection
//	winbench -fig telemetry    interval time series + histogram quantiles
//	winbench -fig durable      WAL on/off throughput + fsync-batching sweep
//	winbench -fig btree        key-level (semantic) vs tvar-granularity conflict detection
//
// -durable runs one standalone crash-safe run instead of a figure: the
// durable red-black-tree workload on a write-ahead log at -wal-dir
// (in-memory simulated disk when empty), group-committed on the frame
// clock, optionally snapshotted every -snapshot-every. Run it twice
// against the same -wal-dir to watch recovery replay the first run's
// commits. Flags that only make sense for a mode they don't enable
// (-wal-dir without -durable, -chaos-seed without -chaos, ...) fail fast.
//
// -backend selects the STM engine every cell runs on: eager (the paper's
// DSTM-style conflict-on-open runtime, the default) or lazy (TL2-style
// invisible reads with commit-time validation and buffered write-back).
// All managers, figures, chaos, durability and tracing work on both.
//
// Defaults are CI-friendly; -paper restores the published regime
// (10-second runs averaged over 6 repetitions, threads up to 32).
// -chaos layers deterministic fault injection (stalls, spurious aborts,
// delays, decision perturbation) onto whichever figure runs; -fig chaos
// runs the dedicated every-manager robustness sweep.
//
// -telemetry-addr starts the live observability endpoint and turns every
// run into an inspectable service: Prometheus text on /metrics, expvar
// JSON on /debug/vars, and the full net/http/pprof surface (CPU, heap,
// block, mutex profiles) on /debug/pprof/. Each experiment cell installs
// a fresh registry, so a scrape always reads the cell in flight.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"wincm/internal/bench"
	"wincm/internal/chaos"
	"wincm/internal/harness"
	"wincm/internal/stm"
	"wincm/internal/telemetry"
	"wincm/internal/txtrace"
)

// figures is the one table of table-printing -fig values, in help order.
// trace is driven apart (traceRun): it prints a timeline, not tables.
var figures = []struct {
	name   string
	driver func(harness.Options) ([]harness.Table, error)
}{
	{"2", harness.Fig2},
	{"3", harness.Fig3},
	{"4", harness.Fig4},
	{"5", harness.Fig5},
	{"ext", harness.Extended},
	{"all", harness.All},
	{"chaos", harness.ChaosSweep},
	{"telemetry", harness.TelemetryFig},
	{"durable", harness.DurabilityFig},
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

// modes is what the mode-selecting flags resolved to.
type modes struct {
	fig                   string
	durable, chaos, trace bool
}

// flagConflict reports the first explicitly set flag (set holds their
// names) that would silently do nothing in the modes m selects: every flag
// below configures a mode another flag enables.
func flagConflict(set map[string]bool, m modes) (err error) {
	requireMode := func(mode string, on bool, names ...string) {
		for _, n := range names {
			if err == nil && set[n] && !on {
				err = fmt.Errorf("-%s has no effect without %s", n, mode)
			}
		}
	}
	requireMode("-durable", m.durable, "wal-dir", "wal-sync-every", "snapshot-every")
	requireMode("-chaos", m.chaos, "chaos-seed", "stall-prob", "max-attempts", "tx-deadline")
	requireMode("-fig telemetry", m.fig == "telemetry", "telemetry-interval", "telemetry-jsonl", "telemetry-csv", "telemetry-manager")
	requireMode("-fig btree", m.fig == "btree", "btree-threads")
	requireMode("-trace (or -fig trace)", m.trace || m.fig == "trace", "trace-sample", "trace-out")
	requireMode("-fig trace", m.fig == "trace", "trace-manager")
	// Figure 5 sweeps contention levels at one thread count, -fig5-threads.
	requireMode("a figure that sweeps M (-fig 5 runs at -fig5-threads)", m.fig != "5", "threads")
	if err != nil {
		return err
	}
	if m.durable && set["fig"] {
		return fmt.Errorf("-durable runs a standalone durable workload; it cannot be combined with -fig %s", m.fig)
	}
	// -fig btree fixes its own axes: it sweeps both engines, pins the
	// benchmark pair (rbtree vs btree) and uses -btree-threads for M, so
	// flags that would silently be overridden fail fast instead.
	if m.fig == "btree" {
		for _, n := range []string{"backend", "bench", "threads"} {
			if set[n] {
				return fmt.Errorf("-%s has no effect with -fig btree (the btree figure sweeps both engines over the rbtree/btree pair; use -btree-threads for M)", n)
			}
		}
	}
	return nil
}

func main() {
	var (
		fig     = flag.String("fig", "all", "figure to reproduce: "+figureNames())
		benches = flag.String("bench", "", "comma-separated benchmarks (default all: list,rbtree,skiplist,vacation)")
		threads = flag.String("threads", "", "comma-separated thread counts (default 1,2,4,8,16,32)")
		dur     = flag.Duration("dur", 300*time.Millisecond, "duration of each timed run")
		reps    = flag.Int("reps", 2, "repetitions per cell")
		total   = flag.Int("total", 20000, "transactions for the fig-5 fixed-work runs")
		fig5M   = flag.Int("fig5-threads", 32, "thread count for fig 5")
		windowN = flag.Int("window-n", 50, "window size N for window-based managers")
		seed    = flag.Uint64("seed", 1, "master seed")
		paper   = flag.Bool("paper", false, "use the paper's full regime (10s runs × 6 reps)")
		backend = flag.String("backend", "", "STM engine: eager (the paper's DSTM-style runtime, default) or lazy (TL2-style commit-time validation)")

		chaosOn    = flag.Bool("chaos", false, "inject deterministic faults (stalls, spurious aborts, delays, decision perturbation) and arm the serialized-fallback budgets")
		chaosSeed  = flag.Uint64("chaos-seed", 0, "seed for the fault schedules (0 = derive from -seed); the same seed replays the same schedule")
		stallProb  = flag.Float64("stall-prob", 0, "per-open probability of a mid-flight stall holding acquired objects (0 = chaos default of 1%)")
		maxAtt     = flag.Int("max-attempts", 0, "retry budget before a transaction takes the serialized fallback (0 = chaos default of 64; negative disables)")
		txDeadline = flag.Duration("tx-deadline", 0, "wall-clock budget before a transaction takes the serialized fallback (0 = chaos default of 250ms; negative disables)")

		telAddr     = flag.String("telemetry-addr", "", "serve live telemetry on this address: Prometheus /metrics, expvar /debug/vars, net/http/pprof /debug/pprof/ (empty = off)")
		telInterval = flag.Duration("telemetry-interval", 0, "sampling period of the -fig telemetry time series (0 = duration/16)")
		telManager  = flag.String("telemetry-manager", "", "contention manager the -fig telemetry run watches (default adaptive-improved-dynamic)")
		telJSONL    = flag.String("telemetry-jsonl", "", "write the -fig telemetry interval series to this file as JSONL")
		telCSV      = flag.String("telemetry-csv", "", "write the -fig telemetry interval series to this file as CSV")

		durable      = flag.Bool("durable", false, "run one standalone durable (write-ahead-logged) workload run instead of a figure")
		walDir       = flag.String("wal-dir", "", "directory for the durable run's log segments and snapshots (empty = in-memory simulated disk)")
		walSyncEvery = flag.Int("wal-sync-every", 1, "group-commit depth: fsync once per this many sealed batches")
		snapEvery    = flag.Duration("snapshot-every", 0, "snapshot period for the durable run (0 = no periodic snapshots)")

		traceOn     = flag.Bool("trace", false, "arm the transaction flight recorder on every run (alone, with no -fig/-durable, runs the -fig trace driver)")
		traceSample = flag.Int("trace-sample", 1, "record one logical transaction in N (1 = every transaction)")
		traceOut    = flag.String("trace-out", "", "write the trace as Chrome trace-event JSON to this file (open it in ui.perfetto.dev); single-run modes only (-fig trace, -durable)")
		traceMgr    = flag.String("trace-manager", "online-dynamic", "contention manager the -fig trace run traces")

		btreeThreads = flag.String("btree-threads", "", "comma-separated thread counts for the -fig btree sweep (default 1,4,8,16)")
	)
	flag.Parse()

	// Fail fast on flag combinations that silently do nothing.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateBackend(*backend); err != nil {
		fatalf("%v", err)
	}
	// Bare -trace is shorthand for the trace driver; with an explicit mode
	// it layers the recorder onto that mode instead.
	if *traceOn && !set["fig"] && !*durable {
		*fig = "trace"
	}
	if err := flagConflict(set, modes{fig: *fig, durable: *durable, chaos: *chaosOn, trace: *traceOn}); err != nil {
		fatalf("%v", err)
	}
	tracing := *traceOn || *fig == "trace"
	if *traceSample < 1 {
		fatalf("-trace-sample must be >= 1 (got %d)", *traceSample)
	}
	// -trace-out holds one run's trace; figure sweeps run many cells, so
	// there would be no single trace to write (use /trace/dump against
	// -telemetry-addr to snapshot a live sweep instead).
	if *traceOut != "" && !(*fig == "trace" || *durable) {
		fatalf("-trace-out needs a single-run mode (-fig trace or -durable); with figure sweeps use -telemetry-addr and GET /trace/dump")
	}
	var traceFile *os.File
	if *traceOut != "" {
		// Create up front so an unwritable path fails before the run
		// spends its duration, not after.
		f, err := os.Create(*traceOut)
		if err != nil {
			fatalf("-trace-out: %v", err)
		}
		traceFile = f
	}
	var traceCfg *harness.TraceConfig
	if tracing {
		traceCfg = &harness.TraceConfig{Sample: *traceSample}
	}

	opts := harness.Options{
		Duration:    *dur,
		Reps:        *reps,
		TotalTxs:    *total,
		Fig5Threads: *fig5M,
		WindowN:     *windowN,
		Backend:     *backend,
		Seed:        *seed,
		Chaos:       *chaosOn,
		ChaosSeed:   *chaosSeed,
		StallProb:   *stallProb,
		MaxAttempts: *maxAtt,
		TxDeadline:  *txDeadline,

		TelemetryInterval: *telInterval,
		TelemetryManager:  *telManager,
		TelemetryJSONL:    *telJSONL,
		TelemetryCSV:      *telCSV,

		Trace: traceCfg,
	}
	if *paper {
		opts.Duration = 10 * time.Second
		opts.Reps = 6
	}
	if *telAddr != "" {
		hub := telemetry.NewHub()
		srv, bound, err := telemetry.Serve(*telAddr, hub)
		if err != nil {
			fatalf("telemetry: %v", err)
		}
		defer srv.Close()
		opts.Hub = hub
		fmt.Fprintf(os.Stderr, "winbench: telemetry on http://%s (/metrics, /debug/vars, /debug/pprof/)\n", bound)
	}
	if *benches != "" {
		opts.Benchmarks = strings.Split(*benches, ",")
	}
	opts.Threads = threadList("threads", *threads)
	opts.BTreeThreads = threadList("btree-threads", *btreeThreads)

	if *durable {
		durableRun(opts, *walDir, *walSyncEvery, *snapEvery, traceFile)
		return
	}
	if *fig == "trace" {
		traceRun(opts, *traceMgr, traceFile)
		return
	}

	for _, f := range figures {
		if f.name != *fig {
			continue
		}
		tables, err := f.driver(opts)
		if err != nil {
			fatalf("fig %s: %v", f.name, err)
		}
		for t := range tables {
			if err := tables[t].Render(os.Stdout); err != nil {
				fatalf("render: %v", err)
			}
		}
		return
	}
	fatalf("unknown figure %q (want %s)", *fig, figureNames())
}

// traceRun executes one short flight-recorded run (first benchmark, last
// thread count of the options) through the harness and prints the
// execution timeline, the hottest conflicting thread pairs, the
// hot-variable heatmap and the thread conflict graph. With a trace file it
// additionally dumps the Chrome trace-event JSON for Perfetto.
func traceRun(opts harness.Options, manager string, out *os.File) {
	benchmark := "list"
	if len(opts.Benchmarks) > 0 {
		benchmark = opts.Benchmarks[0]
	}
	threads := 8
	if len(opts.Threads) > 0 {
		threads = opts.Threads[len(opts.Threads)-1]
	}
	w, err := harness.NewWorkload(benchmark, bench.Mix{UpdatePct: 100, KeyRange: 256}, opts.Seed)
	if err != nil {
		fatalf("trace: %v", err)
	}
	cfg := opts.Config(manager, threads, opts.Seed)
	if cfg.Trace == nil {
		cfg.Trace = &harness.TraceConfig{Hub: opts.Hub}
	}
	res, err := harness.RunTimed(cfg, w, opts.Duration)
	if err != nil {
		fatalf("trace: %v", err)
	}
	col := res.Trace

	counts := col.Counts()
	fmt.Printf("traced %s under %s, M=%d, %v (1-in-%d sampling): %d commits, %d aborts, %d conflicts, %d dropped\n\n",
		benchmark, manager, threads, opts.Duration, col.Recorder().Sample(),
		counts[txtrace.EvCommit], counts[txtrace.EvAbort], counts[txtrace.EvConflict], col.Dropped())
	fmt.Println("timeline (* mostly commits, x mostly aborts, ~ conflicts only):")
	if err := col.Timeline(os.Stdout, 72); err != nil {
		fatalf("trace: %v", err)
	}
	fmt.Println("\nhottest conflict pairs (attacker → enemy):")
	for i, p := range col.AbortsByPair() {
		if i >= 8 {
			break
		}
		fmt.Printf("  T%02d → T%02d: %d\n", p.Attacker, p.Enemy, p.Conflicts)
	}
	fmt.Println("\nhottest variables (by abort attribution):")
	for _, v := range col.Heatmap(8) {
		fmt.Printf("  0x%012x: %4d aborts, %5d conflicts, %6d opens, %v waited\n",
			v.Var, v.Aborts, v.Conflicts, v.Opens, v.Waits.Round(time.Microsecond))
	}
	cs := col.Conflicts(0)
	fmt.Printf("\nconflict graph: %d threads, %d edges, max degree %d (paper's C), greedy colors %d; %d conflicts, %d aborting\n",
		cs.Threads, len(cs.Edges), cs.MaxDegree, cs.Colors, cs.Conflicts, cs.Aborts)

	if out != nil {
		if err := col.WriteChromeTrace(out); err != nil {
			fatalf("trace: writing %s: %v", out.Name(), err)
		}
		if err := out.Close(); err != nil {
			fatalf("trace: closing %s: %v", out.Name(), err)
		}
		fmt.Printf("\nchrome trace written to %s (open in ui.perfetto.dev)\n", out.Name())
	}
}

// threadList parses a comma-separated thread-count flag; empty means unset.
func threadList(name, csv string) []int {
	if csv == "" {
		return nil
	}
	var ms []int
	for _, t := range strings.Split(csv, ",") {
		m, err := strconv.Atoi(strings.TrimSpace(t))
		if err != nil || m < 1 {
			fatalf("bad -%s entry %q", name, t)
		}
		ms = append(ms, m)
	}
	return ms
}

// validateBackend fails the engine selection fast, before any cell runs:
// unknown names are caught at flag time rather than deep inside the first
// sweep.
func validateBackend(backend string) error {
	if backend == "" {
		return nil
	}
	if _, err := stm.BackendOption(backend); err != nil {
		return fmt.Errorf("-backend: %v (want %s)", err, strings.Join(stm.Backends(), " or "))
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "winbench: "+format+"\n", args...)
	os.Exit(1)
}

// durableRun executes one standalone write-ahead-logged run of the
// durable red-black-tree workload and reports what was recovered at open
// and what was made durable by close. Against a persistent -wal-dir,
// consecutive invocations chain: each recovers its predecessor's commits.
func durableRun(opts harness.Options, dir string, syncEvery int, snapEvery time.Duration, traceFile *os.File) {
	threads := 4
	if len(opts.Threads) > 0 {
		threads = opts.Threads[len(opts.Threads)-1]
	}
	dc := &harness.DurableConfig{Dir: dir, SyncEvery: syncEvery, SnapshotEvery: snapEvery}
	where := dir
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatalf("durable: %v", err)
		}
	} else {
		dc.FS = chaos.NewDisk(opts.Seed)
		where = "in-memory simulated disk"
	}
	// Build the cell through Options.Config so a durable run inherits the
	// same telemetry/trace wiring the figure sweeps get — in particular,
	// with -telemetry-addr the WAL's fsync-latency and batch-size
	// histograms land on the live /metrics endpoint.
	cfg := opts.Config("adaptive-improved-dynamic", threads, opts.Seed)
	cfg.Durable = dc
	w := harness.NewDurableMap(threads, 256)
	res, err := harness.RunTimed(cfg, w, opts.Duration)
	if err != nil {
		fatalf("durable: %v", err)
	}
	fmt.Printf("durable run: %s, M=%d, %v on %s\n", cfg.Manager, threads, opts.Duration, where)
	if res.Recovery.SnapshotRestored || res.Recovery.Records > 0 {
		fmt.Printf("  recovered: snapshot=%v batches=%d records=%d torn-tails=%d\n",
			res.Recovery.SnapshotRestored, res.Recovery.Batches, res.Recovery.Records, res.Recovery.TornTails)
	} else {
		fmt.Println("  recovered: nothing (fresh log)")
	}
	fmt.Printf("  committed: %d (%.0f commits/s), aborts/commit %.3f\n",
		res.Commits, res.Throughput(), res.AbortsPerCommit())
	fmt.Printf("  wal: appends=%d batches=%d fsyncs=%d bytes=%d snapshots=%d durable-records=%d\n",
		res.Wal.Appends, res.Wal.Batches, res.Wal.Fsyncs, res.Wal.Bytes, res.Wal.Snapshots, res.Wal.DurableRecords)
	if col := res.Trace; col != nil {
		counts := col.Counts()
		fmt.Printf("  trace: %d events (%d wal-seals, %d fsyncs, %d frames), %d dropped\n",
			len(col.Events()), counts[txtrace.EvWalSeal], counts[txtrace.EvWalFsync],
			counts[txtrace.EvFrame], col.Dropped())
		if traceFile != nil {
			if err := col.WriteChromeTrace(traceFile); err != nil {
				fatalf("durable: writing %s: %v", traceFile.Name(), err)
			}
			if err := traceFile.Close(); err != nil {
				fatalf("durable: closing %s: %v", traceFile.Name(), err)
			}
			fmt.Printf("  chrome trace written to %s (open in ui.perfetto.dev)\n", traceFile.Name())
		}
	}
}
