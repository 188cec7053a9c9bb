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
	// TelemetryInterval starts an interval sampler on the run's registry,
	// producing Result.Series (0 = no sampling).
	TelemetryInterval time.Duration
	// TraceSample, when n >= 1, arms the transaction flight recorder for
	// this run, recording one logical transaction in n: the recorder is
	// the runtime's probe, a window manager's frame advances land on its
	// auxiliary track, and a background poller drains its rings into
	// Result.Trace's collector. 0 keeps tracing fully off (the hot path
	// pays nothing).
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
	// Series is the interval time series sampled during the run, present
	// when Config.TelemetryInterval was set.
	Series []telemetry.Point
	// Trace is the flight-recorder collector holding the run's retained
	// event window, present when Config.TraceSample was set. The rings are
	// fully drained by the time the run returns.
	Trace *txtrace.Collector
}

// instruments bundles one run's observability plumbing: the registry and
// transaction stats the worker loop records into, the interval sampler and
// the flight recorder's collector.
type instruments struct {
	reg       *telemetry.Registry
	tx        *telemetry.TxStats
	sampler   *telemetry.Sampler
	collector *txtrace.Collector
	traceStop func() // stops the trace poller (nil when tracing is off)
}

// instrument builds the runtime plus the run's instruments: the flight
// recorder, when armed, is the runtime's probe; transaction stats, the
// runtime's counts and a window manager's gauges land in the run's
// registry; and the interval sampler starts last so its first point sees
// every instrument registered. Every run has a registry — Result.Summary
// is read from it — and registers the same instruments on it.
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
		rec := txtrace.NewRecorder(c.Threads, c.TraceSample, txtrace.DefaultRingCap)
		opts = append(opts, stm.WithProbe(rec))
		ins.collector = txtrace.NewCollector(rec, txtrace.DefaultKeep)
		if wm != nil {
			wm.AddFrameHook(rec.FrameAdvanced)
		}
		ins.traceStop = startTracePoller(ins.collector)
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
	reg.RegisterGauge(telemetry.NewGauge("wincm_cm_wait_ns_total", "granted contention-manager wait spans (ns)",
		func() float64 { return float64(rt.Verdicts().WaitNs) }))
	reg.RegisterGauge(telemetry.NewGauge("wincm_restart_delay_ns_total", "restart delays carried by self-abort verdicts (ns)",
		func() float64 { return float64(rt.Verdicts().RestartNs) }))
	if c.TelemetryInterval > 0 {
		ins.sampler = telemetry.StartSampler(reg, c.TelemetryInterval, 0)
	}
	return rt, ins
}

// finish stops the instrumentation, reads the summary off the final
// snapshot and runs the workload's invariant check.
func (c Config) finish(res *Result, ins *instruments, w Workload, wall time.Duration) error {
	if ins.sampler != nil {
		ins.sampler.Stop()
		res.Series = ins.sampler.Points()
	}
	res.Summary = ins.reg.Snapshot().Summary(c.Threads, wall)
	if ins.traceStop != nil {
		// Stops the poller and performs the final drain, so the collector
		// holds every published event once the run returns.
		ins.traceStop()
		res.Trace = ins.collector
	}
	if err := w.Verify(); err != nil {
		return fmt.Errorf("harness: %s under %s failed verification: %w", w.Name(), c.Manager, err)
	}
	return nil
}

// RunTimed executes w from cfg.Threads threads for roughly d and returns
// the run's metrics. The workload is set up fresh by the caller.
func RunTimed(cfg Config, w Workload, d time.Duration) (Result, error) {
	return run(cfg, w, d, math.MaxInt)
}

// RunCount executes total transactions split evenly across cfg.Threads
// threads and returns the run's metrics; Result.Wall is the total time
// needed to commit them all (Fig. 5's measurement).
func RunCount(cfg Config, w Workload, total int) (Result, error) {
	res, err := run(cfg, w, -1, total)
	if err == nil && res.Commits != int64(total) {
		err = fmt.Errorf("harness: committed %d of %d transactions", res.Commits, total)
	}
	return res, err
}

// run is the one worker loop behind RunTimed and RunCount. Every thread
// runs transactions, recording each into the run's TxStats, until its
// share of total is done or the deadline d has passed (negative = no
// deadline) — whichever comes first.
func run(cfg Config, w Workload, d time.Duration, total int) (Result, error) {
	mgr, err := cfg.NewManager()
	if err != nil {
		return Result{}, err
	}
	rt, ins := cfg.instrument(mgr)
	w.Setup(rt.Thread(0))

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
	if d >= 0 {
		time.Sleep(d)
		stop.Store(true)
	}
	wg.Wait()
	wall := time.Since(start)

	var res Result
	if err := cfg.finish(&res, ins, w, wall); err != nil {
		return Result{}, err
	}
	return res, nil
}
