package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"wincm/internal/core"
	"wincm/internal/kv"
)

// result is one run of one workload.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   *metricSet
	// StreamHash digests the generated commands (0 for tm-vacation-high,
	// whose clients draw their own from the seed).
	StreamHash uint64
}

// env is what a run needs besides the workload.
type env struct {
	seed   uint64
	shape  runShape
	p      int
	out    io.Writer // human-readable report
	outDir string    // trace files; "" writes none
}

// runWorkload runs one workload in the given shape and prints its metrics
// and sanity assertions.
func runWorkload(s spec, e env) (*result, error) {
	runtime.GOMAXPROCS(e.p)
	decls := endToEnd
	if e.shape.trace {
		decls = perLayer
	}
	res := &result{Metrics: newMetricSet(decls)}
	var checks []sanity
	var err error
	if s.tm {
		err = runTM(s, e, res, &checks)
	} else {
		err = runKV(s, e, res, &checks)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	check(&checks, res.Failed == 0, "failed = %d of %d attempted, want 0", res.Failed, res.Attempted)
	res.Metrics.print(e.out, s.name)
	sane := printSanity(e.out, s.name, checks)
	res.Correct = res.Correct && sane
	return res, nil
}

// timeSetups runs build until it has run shape.minSetups times and for a
// quarter of a second in all, closing every product but the last, and
// returns the last product and the median build time. Short set-ups repeat
// often, so their median is as steady as a long one's.
func timeSetups[T any](shape runShape, build func() (T, error), discard func(T)) (T, float64, error) {
	const minTotal = 250 * time.Millisecond
	const maxReps = 512
	var times []float64
	var total time.Duration
	var last T
	for i := 0; i < shape.minSetups || (total < minTotal && i < maxReps); i++ {
		if i > 0 {
			discard(last)
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
		last = v
	}
	return last, median(times), nil
}

// measured is what the sampler gathered over a run's windows.
type measured struct {
	windows  []window
	heap     *heapPeak
	cpu      time.Duration
	gostats  [2]goStats
	duration time.Duration
}

// measure runs the measured part of every workload: warm-up, then
// shape.windows windows, every second one traced when shape.trace is set.
func measure(shape runShape, counts func() [numClasses]int64, tracing *atomic.Bool) measured {
	observe(counts, tracing, shape.warmup, false, newHeapPeak())
	m := measured{heap: newHeapPeak()}
	start := time.Now()
	cpu0 := cpuTime()
	m.gostats[0] = readGoStats()
	for i := 0; i < shape.windows; i++ {
		m.windows = append(m.windows, observe(counts, tracing, shape.window, shape.trace && i%2 == 1, m.heap))
	}
	m.gostats[1] = readGoStats()
	m.cpu = cpuTime() - cpu0
	m.duration = time.Since(start)
	m.heap.collect()
	return m
}

// observe sleeps through one window, sampling the heap, and returns what
// was completed in it according to counts.
func observe(counts func() [numClasses]int64, tracing *atomic.Bool, d time.Duration, traced bool, heap *heapPeak) window {
	tracing.Store(traced)
	before := counts()
	start := time.Now()
	heap.sleep(d)
	after := counts()
	w := window{dur: time.Since(start), traced: traced}
	for i := range w.ops {
		w.ops[i] = after[i] - before[i]
	}
	return w
}

// emitTrace writes the run's spans to <outDir>/<workload>.trace.json and
// reports how many there were.
func emitTrace(ms *metricSet, e env, workload string, logs []*spanLog) error {
	if e.outDir == "" {
		return nil
	}
	n, err := writeChromeTrace(filepath.Join(e.outDir, workload+".trace.json"), logs)
	if err != nil {
		return err
	}
	ms.set("trace.spans", float64(n))
	return nil
}

// rates returns the windows' ops/s, split by whether the window was traced,
// and the operations completed in all of them.
func (m measured) rates() (untraced, traced []float64, ops int64) {
	for _, w := range m.windows {
		if w.traced {
			traced = append(traced, w.opsPerSec())
		} else {
			untraced = append(untraced, w.opsPerSec())
		}
		ops += w.total()
	}
	return untraced, traced, ops
}

// emitEndToEnd sets the metrics of an untraced run.
func (m measured) emitEndToEnd(ms *metricSet, setup, loadedMB float64) {
	rates, _, ops := m.rates()
	ms.set("setup_s", setup)
	ms.set("ops_per_s", median(rates))
	ms.set("cpu_us_per_op", float64(m.cpu)/1e3/float64(ops))
	ms.set("heap_loaded_mb", loadedMB)
}

// emitCommon sets the per-layer metrics every workload has: window spread,
// Go runtime and heap account and tracing overhead. It returns the untraced median.
func (m measured) emitCommon(ms *metricSet) float64 {
	untraced, traced, ops := m.rates()
	base := median(untraced)
	ms.set("client.window_iqr_frac", iqrFrac(untraced))
	if len(traced) > 0 && base > 0 {
		ms.set("trace.overhead_frac", 1-median(traced)/base)
	}
	g0, g1 := m.gostats[0], m.gostats[1]
	ms.set("go.alloc_b_per_op", float64(g1.allocBytes-g0.allocBytes)/float64(ops))
	ms.set("go.gc_cycles", float64(g1.gcCycles-g0.gcCycles))
	ms.set("go.gc_pause_total_ms", float64(g1.gcPause-g0.gcPause)/1e6)
	ms.set("go.heap_peak_mb", m.heap.mb())
	return base
}

func runKV(s spec, e env, res *result, checks *[]sanity) error {
	ks := newKeyspace(s)
	st, setup, err := timeSetups(e.shape,
		func() (*kv.Store, error) { return buildStore(s, e.seed, e.p) },
		func(st *kv.Store) { st.Close() })
	if err != nil {
		return err
	}
	loadedMB := liveHeapMB()
	streams := make([]*stream, e.p)
	for i := range streams {
		streams[i] = genStream(s, ks, e.seed, i, s.streamOps)
		res.StreamHash = res.StreamHash*31 + streams[i].hash()
	}
	runtime.GC()

	sys, err := startKV(s, ks, st)
	if err != nil {
		st.Close()
		return err
	}
	defer sys.close()
	stats0 := st.Stats()
	lr, err := startLoad(sys, streams, e.shape.trace)
	if err != nil {
		return err
	}
	m := measure(e.shape, lr.counts, &lr.tracing)
	if err := lr.halt(); err != nil {
		return err
	}
	stats1 := st.Stats()
	ok, failed := lr.totals()
	res.Attempted, res.Failed = ok+failed, failed

	commits := float64(stats1.Commits - stats0.Commits)
	// The Stats pair brackets the whole closed loop, warm-up included, and
	// so do the clients' totals.
	commitsPerOp := commits / float64(ok+failed)
	abortsPerCommit := float64(stats1.Aborts-stats0.Aborts) / commits

	ms := res.Metrics
	if !e.shape.trace {
		m.emitEndToEnd(ms, setup, loadedMB)
	} else {
		base := m.emitCommon(ms)
		emitClients(ms, lr.clients, m, s.depth)
		ms.set("client.failed_frac", float64(failed)/float64(ok+failed))
		ms.set("kv.session.commits_per_op", commitsPerOp)
		ms.set("stm.aborts_per_commit", abortsPerCommit)
		ms.set("stm.watchdog_trips", float64(stats1.WatchdogTrips-stats0.WatchdogTrips))
		logs := make([]*spanLog, len(lr.clients))
		for i, c := range lr.clients {
			logs[i] = c.log
		}
		if err := emitTrace(ms, e, s.name, logs); err != nil {
			return err
		}

		lp := &layerProbe{sys: sys, streams: streams, shape: e.shape, seed: e.seed, p: e.p, m: ms, out: e.out, opsPerSec: base}
		lp.mgr = defaultManager(e.p, e.seed)
		lp.rig = newTreeRig(s, ks, e.p, lp.mgr)
		if err := lp.ping(); err != nil {
			return err
		}
		if err := lp.budget(); err != nil {
			return err
		}
		lp.treeFloor()
		if err := lp.getStall(); err != nil {
			return err
		}
		if err := lp.sessionReplay(); err != nil {
			return err
		}
		lp.treeReplay()
		stmFloor(ms, e.shape.replayDiv)
		res.Attempted += lp.checked
		res.Failed += lp.failed

		genShare := ms.values["client.gen_ns_per_op"] / (float64(e.p) / base * 1e9)
		check(checks, genShare < 0.15, "client.gen_ns_per_op is %.1f%% of P/ops_per_s, want < 15%%", genShare*100)
	}

	res.Correct = true
	if err := verifyStore(st, ks); err != nil {
		fmt.Fprintf(e.out, "verify %s: %v\n", s.name, err)
		res.Correct = false
		res.Failed++
	}
	res.Attempted++

	switch s.name {
	case "kv-point":
		check(checks, abortsPerCommit <= 0.001, "stm.aborts_per_commit = %.5f, want <= 0.001 (no contention here)", abortsPerCommit)
		check(checks, commitsPerOp > 0.995 && commitsPerOp < 1.005, "kv.session.commits_per_op = %.3f, want 1.00", commitsPerOp)
	case "kv-hot-write":
		check(checks, abortsPerCommit >= 0.005, "stm.aborts_per_commit = %.5f, want >= 0.005 (conflicts must reach the manager)", abortsPerCommit)
		check(checks, commitsPerOp > 0.995 && commitsPerOp < 1.005, "kv.session.commits_per_op = %.3f, want 1.00", commitsPerOp)
	case "kv-xshard":
		check(checks, commitsPerOp > 2, "kv.session.commits_per_op = %.3f, want > 2 (cross-shard sub-transactions)", commitsPerOp)
	}
	return nil
}

// emitClients sets the generator's own metrics from the traced batches.
func emitClients(ms *metricSet, clients []*client, m measured, depth int) {
	var batches, gen, flush, wait int64
	recs := make([]*recorder, len(clients))
	for i, c := range clients {
		batches += c.batches
		gen += c.genNs
		flush += c.flushNs
		wait += c.waitNs
		recs[i] = &c.lat
	}
	if batches > 0 {
		ms.set("client.gen_ns_per_op", float64(gen)/float64(batches*int64(depth)))
		ms.set("client.flush_ns_per_batch", float64(flush)/float64(batches))
		ms.set("client.wait_ns_per_batch", float64(wait)/float64(batches))
	}
	sorted := mergeSorted(recs)
	ms.set("client.batch_samples", float64(len(sorted)))
	for _, q := range []struct {
		name string
		q    float64
	}{{"client.batch_p50_us", 0.50}, {"client.batch_p99_us", 0.99}, {"client.batch_p999_us", 0.999}} {
		if v, ok := percentile(sorted, q.q); ok {
			ms.set(q.name, float64(v)/1e3)
		}
	}
	for class, name := range classNames {
		var rates []float64
		for _, w := range m.windows {
			rates = append(rates, float64(w.ops[class])/w.dur.Seconds())
		}
		if r := median(rates); r > 0 {
			ms.set("client.ops_per_s."+name, r)
		}
	}
}

func runTM(s spec, e env, res *result, checks *[]sanity) error {
	var mgr *core.Manager
	sys, setup, err := timeSetups(e.shape,
		func() (*tmSystem, error) {
			mgr = defaultManager(e.p, e.seed)
			return buildTM(e.seed, e.p, mgr)
		},
		func(*tmSystem) {})
	if err != nil {
		return err
	}
	loadedMB := liveHeapMB()
	// The watchdog only counts here: with no fallback budget armed it acts
	// when no transaction commits for a whole interval, which a healthy run
	// never shows.
	wd := sys.rt.StartWatchdog(kv.DefaultTxDeadline)
	mgr0 := readManager(mgr)
	run := startTM(sys, e.seed, e.shape.trace)
	m := measure(e.shape, run.counts, &run.tracing)
	run.halt()
	wd.Stop()
	acc := run.accum()
	res.Attempted = acc.commits
	abortsPerCommit := float64(acc.aborts) / float64(acc.commits)

	ms := res.Metrics
	if !e.shape.trace {
		m.emitEndToEnd(ms, setup, loadedMB)
	} else {
		base := m.emitCommon(ms)
		ms.set("client.failed_frac", 0)
		ms.set("stm.aborts_per_commit", abortsPerCommit)
		ms.set("stm.watchdog_trips", float64(wd.Trips()))
		acc.emit(ms)
		emitManager(ms, mgr0, readManager(mgr), acc.commits, e.shape.warmup+m.duration)
		logs := make([]*spanLog, len(run.workers))
		for i, w := range run.workers {
			logs[i] = w.log
		}
		if err := emitTrace(ms, e, s.name, logs); err != nil {
			return err
		}
		polka, err := polkaOpsPerSec(e.seed, e.p, e.shape)
		if err != nil {
			return err
		}
		ms.set("core.vs_polka_ratio", base/polka)
		us, err := uncontendedTxUs(e.seed, e.shape.replayDiv)
		if err != nil {
			return err
		}
		ms.set("vacation.tx_us_uncontended", us)
		stmFloor(ms, e.shape.replayDiv)
	}

	res.Correct = true
	if err := sys.w.Verify(); err != nil {
		fmt.Fprintf(e.out, "verify %s: %v\n", s.name, err)
		res.Correct = false
		res.Failed++
	}
	check(checks, abortsPerCommit >= 0.2, "stm.aborts_per_commit = %.3f, want >= 0.2 (the paper's high-contention regime)", abortsPerCommit)
	return nil
}
