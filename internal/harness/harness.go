// Package harness drives the paper's experiments: it builds a runtime with
// a named contention manager, runs a workload from M threads — for a fixed
// duration (throughput experiments, Figs. 2–4) or for a fixed number of
// transactions (execution-time overhead, Fig. 5) — and aggregates the
// transactional metrics.
package harness

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wincm/internal/core"
	"wincm/internal/stm"
	"wincm/internal/telemetry"
	"wincm/internal/txtrace"
)

// Runner executes one transaction on th and returns its commit statistics.
type Runner func(th *stm.Thread) stm.TxInfo

// Workload is a benchmark the harness can drive.
type Workload interface {
	// Name identifies the benchmark.
	Name() string
	// Setup populates shared state before the run (single-threaded).
	Setup(th *stm.Thread)
	// NewRunner returns thread id's transaction loop body; seed
	// parameterizes its private random stream.
	NewRunner(id int, seed uint64) Runner
	// Verify checks post-run invariants in a quiescent state.
	Verify() error
}

// Config describes one experiment cell. Window managers run the paper's
// N = 50 and no fallback budgets, as in every experiment of the paper.
type Config struct {
	// Manager names the contention manager (cm registry name).
	Manager string
	// Threads is M, the number of worker threads.
	Threads int
	// Seed drives all workload randomness.
	Seed uint64
	// Telemetry, when non-nil, receives this run's live instruments: the
	// transaction counters and histograms, the runtime's verdict counts
	// and, for window managers, core.Manager's introspection gauges.
	// With nil the run registers the same instruments on a private
	// registry; Result.Summary is read from it either way, and the
	// runtime runs the same program.
	Telemetry *telemetry.Registry
	// TraceSample, when n >= 1, arms the transaction flight recorder for
	// this run, recording one logical transaction in n: the recorder is
	// the runtime's probe, a window manager's frame advances land on its
	// frame track, and the run reads it into Result.Trace once its workers
	// have joined. 0 keeps tracing fully off (the hot path pays nothing).
	TraceSample int
}

// NewManager builds the configured contention manager (core.NewNamed:
// window variants run the paper's N = 50).
func (c Config) NewManager() (stm.ContentionManager, error) {
	mgr, _, err := core.NewNamed(c.Manager, c.Threads, c.Seed+1)
	return mgr, err
}

// Result is the outcome of one run.
type Result struct {
	// Summary is the view of the run's final telemetry snapshot: the
	// transaction counters every worker recorded into.
	telemetry.Summary
	// Series is the interval time series TelemetryFig's run takes of its
	// registry, empty on every other run.
	Series []Point
	// Trace is the run's flight recording, present when
	// Config.TraceSample was set.
	Trace *txtrace.Trace
}

// Point is one sample of a run's registry, taken At after its workers
// started. Rates are deltas between consecutive points.
type Point struct {
	At time.Duration
	telemetry.Snapshot
}

// instruments bundles one run's observability plumbing: the registry and
// transaction stats the worker loop records into and the flight recorder.
type instruments struct {
	reg *telemetry.Registry
	tx  *telemetry.TxStats
	rec *setupGate // the flight recorder; nil when tracing is off
}

// setupGate is a traced run's probe: the flight recorder with OnBegin held
// shut until the timed run starts, so the workload's Setup transactions are
// never sampled and spend none of the budget. Every other hook records only
// a transaction OnBegin sampled.
type setupGate struct {
	*txtrace.Recorder
	open bool // set before the workers start; their go statements order it
}

// OnBegin implements stm.Probe.
func (g *setupGate) OnBegin(tx *stm.Tx) {
	if g.open {
		g.Recorder.OnBegin(tx)
	}
}

// startRecording opens the recording, attempts and frame advances alike,
// once Setup is done and before the workers start.
func (ins *instruments) startRecording(mgr stm.ContentionManager) {
	if ins.rec == nil {
		return
	}
	ins.rec.open = true
	if wm, ok := mgr.(*core.Manager); ok {
		wm.AddFrameHook(ins.rec.FrameAdvanced)
	}
}

// instrument builds the runtime plus the run's instruments: the flight
// recorder, when armed, is the runtime's probe (recording from
// startRecording on); transaction stats, the runtime's counts and a window
// manager's gauges land in the run's registry. Every run has a registry —
// Result.Summary is read from it — and registers the same instruments on it.
func (c Config) instrument(mgr stm.ContentionManager) (*stm.Runtime, *instruments) {
	reg := c.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ins := &instruments{reg: reg, tx: telemetry.NewTxStats(reg, c.Threads)}
	wm, _ := mgr.(*core.Manager)
	if wm != nil {
		for _, g := range wm.TelemetryGauges() {
			reg.RegisterGauge(g)
		}
	}
	var opts []stm.Option
	if c.TraceSample > 0 {
		ins.rec = &setupGate{Recorder: txtrace.NewRecorder(c.Threads, c.TraceSample)}
		opts = append(opts, stm.WithProbe(ins.rec))
	}
	rt := stm.New(c.Threads, mgr, opts...)
	reg.RegisterGauge(telemetry.NewGauge("wincm_locator_retired",
		"locators retired and awaiting a grace period before reuse",
		func() float64 { return float64(rt.RetiredLocators()) }))
	reg.RegisterGauge(telemetry.NewGauge("wincm_resolve_abort_enemy_total", "conflicts resolved by aborting the enemy",
		func() float64 { return float64(rt.Verdicts().AbortEnemy) }))
	reg.RegisterGauge(telemetry.NewGauge("wincm_resolve_abort_self_total", "conflicts resolved by self-abort",
		func() float64 { return float64(rt.Verdicts().AbortSelf) }))
	reg.RegisterGauge(telemetry.NewGauge("wincm_resolve_wait_total", "conflicts resolved by waiting",
		func() float64 { return float64(rt.Verdicts().Wait) }))
	reg.RegisterGauge(telemetry.NewGauge("wincm_cm_wait_ns_total", "time contention-manager Wait verdicts blocked their threads (ns)",
		func() float64 { return float64(rt.Verdicts().WaitNs) }))
	reg.RegisterGauge(telemetry.NewGauge("wincm_restart_delay_ns_total", "restart delays carried by self-abort verdicts (ns)",
		func() float64 { return float64(rt.Verdicts().RestartNs) }))
	return rt, ins
}

// finish reads the summary off the final snapshot and the recording off
// the recorder, and runs the workload's invariant check. The caller has
// joined the workers, which orders their recording before the read.
func (c Config) finish(res *Result, ins *instruments, w Workload, wall time.Duration) error {
	res.Summary = ins.reg.Snapshot().Summary(c.Threads, wall)
	if ins.rec != nil {
		res.Trace = ins.rec.Read()
	}
	if err := w.Verify(); err != nil {
		return fmt.Errorf("harness: %s under %s failed verification: %w", w.Name(), c.Manager, err)
	}
	return nil
}

// RunTimed executes w from cfg.Threads threads for roughly d and returns
// the run's metrics. The workload is set up fresh by the caller.
func RunTimed(cfg Config, w Workload, d time.Duration) (Result, error) {
	return run(cfg, w, d, math.MaxInt, 0)
}

// RunCount executes total transactions split evenly across cfg.Threads
// threads and returns the run's metrics; Result.Wall is the total time
// needed to commit them all (Fig. 5's measurement).
func RunCount(cfg Config, w Workload, total int) (Result, error) {
	res, err := run(cfg, w, -1, total, 0)
	if err == nil && res.Commits != int64(total) {
		err = fmt.Errorf("harness: committed %d of %d transactions", res.Commits, total)
	}
	return res, err
}

// run is the one worker loop behind RunTimed and RunCount. Every thread
// runs transactions, recording each into the run's TxStats, until its
// share of total is done or the deadline d has passed (negative = no
// deadline) — whichever comes first. A timed run with points > 0 takes
// Result.Series: its main goroutine wakes every d/points to snapshot the
// registry, and takes the last point once the workers have joined.
func run(cfg Config, w Workload, d time.Duration, total, points int) (Result, error) {
	mgr, err := cfg.NewManager()
	if err != nil {
		return Result{}, err
	}
	rt, ins := cfg.instrument(mgr)
	w.Setup(rt.Thread(0))
	ins.startRecording(mgr)

	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.Threads; i++ {
		quota := total / cfg.Threads
		if i < total%cfg.Threads {
			quota++
		}
		wg.Add(1)
		go func(id int, th *stm.Thread) {
			defer wg.Done()
			tx := w.NewRunner(id, cfg.Seed+uint64(id)*7919)
			for n := 0; n < quota && !stop.Load(); n++ {
				ins.tx.RecordTx(id, tx(th))
			}
		}(i, rt.Thread(i))
	}
	var res Result
	if d >= 0 {
		for i := nextPoint(0, points, d, 0); i < points; i = nextPoint(i, points, d, time.Since(start)) {
			time.Sleep(time.Until(start.Add(d * time.Duration(i) / time.Duration(points))))
			res.Series = append(res.Series, Point{time.Since(start), ins.reg.Snapshot()})
		}
		time.Sleep(time.Until(start.Add(d)))
		stop.Store(true)
	}
	wg.Wait()
	wall := time.Since(start)
	if points > 0 {
		res.Series = append(res.Series, Point{wall, ins.reg.Snapshot()})
	}

	if err := cfg.finish(&res, ins, w, wall); err != nil {
		return Result{}, err
	}
	return res, nil
}

// nextPoint returns the index of the series point to take after point
// prev: the first i > prev whose deadline d·i/points lies past elapsed, the
// run's age now, or points when none before the run's end does. A main
// goroutine that woke late thus skips every deadline it slept through
// instead of taking points microseconds apart.
func nextPoint(prev, points int, d, elapsed time.Duration) int {
	i := prev + 1
	for i < points && d*time.Duration(i)/time.Duration(points) <= elapsed {
		i++
	}
	return i
}
