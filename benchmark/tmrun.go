package main

import (
	"sync"
	"sync/atomic"

	"wincm/internal/bench"
	"wincm/internal/cm"
	"wincm/internal/harness"
	"wincm/internal/stm"
)

// tmInterleave is the harness's default open-yield grain, which the paper
// reproduction uses to make transactions overlap on few cores.
const tmInterleave = 8

// tmSystem is the system under test of tm-vacation-high: the vacation
// tables in one eager runtime, no kv and no wire.
type tmSystem struct {
	w  harness.Workload
	rt *stm.Runtime
}

// buildTM is the tm set-up: the runtime, the tables and their rows.
func buildTM(seed uint64, threads int, mgr stm.ContentionManager) (*tmSystem, error) {
	w, err := harness.NewWorkload("vacation", bench.HighContention, seed)
	if err != nil {
		return nil, err
	}
	rt := stm.New(threads, mgr)
	rt.SetYieldEvery(tmInterleave)
	w.Setup(rt.Thread(0))
	return &tmSystem{w: w, rt: rt}, nil
}

// tmWorker is one thread's closed loop of vacation transactions.
type tmWorker struct {
	commits atomic.Int64
	acc     txAccum
	log     *spanLog
}

// tmRun is a vacation run in progress.
type tmRun struct {
	workers []*tmWorker
	stop    atomic.Bool
	tracing atomic.Bool
	wg      sync.WaitGroup
}

func startTM(sys *tmSystem, seed uint64, withSpans bool) *tmRun {
	run := &tmRun{}
	for id := 0; id < sys.rt.Threads(); id++ {
		w := &tmWorker{}
		if withSpans {
			w.log = newSpanLog(id, 1<<16)
		}
		run.workers = append(run.workers, w)
		run.wg.Add(1)
		go func(id int, w *tmWorker) {
			defer run.wg.Done()
			th := sys.rt.Thread(id)
			next := sys.w.NewRunner(id, seed+uint64(id)*7919)
			for n := int64(0); !run.stop.Load(); n++ {
				// One transaction in sampleEvery is timed into a span; the
				// others cost the traced run nothing.
				if w.log != nil && n%sampleEvery == 0 && run.tracing.Load() {
					t0 := nowNs()
					w.acc.record(next(th))
					w.log.add(spTx, -1, t0, nowNs(), int64(id)<<40|n)
				} else {
					w.acc.record(next(th))
				}
				w.commits.Store(n + 1)
			}
		}(id, w)
	}
	return run
}

func (run *tmRun) halt() {
	run.stop.Store(true)
	run.wg.Wait()
}

// counts reports commits in the first class slot, so the window arithmetic
// is the kv workloads'.
func (run *tmRun) counts() (ops [numClasses]int64) {
	for _, w := range run.workers {
		ops[0] += w.commits.Load()
	}
	return ops
}

func (run *tmRun) accum() (acc txAccum) {
	for _, w := range run.workers {
		acc.merge(&w.acc)
	}
	return acc
}

// polkaOpsPerSec runs the same workload under Polka, the paper's baseline,
// for the comparison behind core.vs_polka_ratio.
func polkaOpsPerSec(seed uint64, threads int, shape runShape) (float64, error) {
	mgr, err := cm.New("polka", threads)
	if err != nil {
		return 0, err
	}
	sys, err := buildTM(seed, threads, mgr)
	if err != nil {
		return 0, err
	}
	run := startTM(sys, seed, false)
	heap := newHeapPeak()
	observe(run.counts, &run.tracing, shape.probe, false, heap) // warm-up
	var rates []float64
	for i := 0; i < 3; i++ {
		rates = append(rates, observe(run.counts, &run.tracing, shape.probe, false, heap).opsPerSec())
	}
	run.halt()
	if err := sys.w.Verify(); err != nil {
		return 0, err
	}
	return median(rates), nil
}

// uncontendedTxUs is the mean successful-attempt time of vacation
// transactions on one thread: the work a transaction is when nothing
// conflicts.
func uncontendedTxUs(seed uint64, div int) (float64, error) {
	sys, err := buildTM(seed, 1, defaultManager(1, seed))
	if err != nil {
		return 0, err
	}
	th := sys.rt.Thread(0)
	next := sys.w.NewRunner(0, seed)
	var acc txAccum
	for i := 0; i < (1<<15)/div; i++ {
		acc.record(next(th))
	}
	return float64(acc.commitDur) / float64(acc.commits) / 1e3, sys.w.Verify()
}
