package bench_test

import (
	"sync"
	"testing"

	"wincm/internal/bench"
	"wincm/internal/cm"
	"wincm/internal/stm"
	"wincm/internal/txtrace"
)

// traceThreads is the flight-recorder overhead benchmark's concurrency:
// the recorder's budget is specified against the 8-thread list workload.
const traceThreads = 8

// runTraceList drives the sorted-list set from 8 goroutines at the
// paper's 100%-update mix, with probe optionally armed — the workload the
// recorder's overhead budget is measured on (off <1%, 1-in-64 <5%).
func runTraceList(b *testing.B, probe stm.Probe) {
	var opts []stm.Option
	if probe != nil {
		opts = append(opts, stm.WithProbe(probe))
	}
	mgr, err := cm.New("polka", traceThreads)
	if err != nil {
		b.Fatal(err)
	}
	rt := stm.New(traceThreads, mgr, opts...)
	s := bench.NewList()
	bench.Populate(rt.Thread(0), s, 128, 256, 1)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < traceThreads; i++ {
		quota := b.N / traceThreads
		if i < b.N%traceThreads {
			quota++
		}
		wg.Add(1)
		go func(id, quota int, th *stm.Thread) {
			defer wg.Done()
			g := bench.NewGen(bench.Mix{UpdatePct: 100, KeyRange: 256}, uint64(id)*7919+1)
			for n := 0; n < quota; n++ {
				op := g.Next()
				th.Atomic(func(tx *stm.Tx) { bench.Apply(tx, s, op) })
			}
		}(i, quota, rt.Thread(i))
	}
	wg.Wait()
}

// BenchmarkTraceOverhead compares the list workload with the flight
// recorder fully off (the shipped default: no probe installed, the hot
// path pays nothing) against 1-in-64 sampling into the recorder's
// per-thread buffers — the two cells the recorder's overhead budget is
// stated on. Nothing reads the recording while the run is timed.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		runTraceList(b, nil)
	})
	b.Run("sampled64", func(b *testing.B) {
		runTraceList(b, txtrace.NewRecorder(traceThreads, 64))
	})
}

// BenchmarkTraceRecorderUnsampled measures the recorder's armed-but-idle
// cost: sampling 1-in-2^30 leaves every transaction after the first
// unsampled, so each attempt pays one counter increment and nothing per
// open. Run with -benchmem; allocs/op must be 0 — an unsampled
// transaction records nothing, so it never grows a buffer (txtrace's
// TestRecorderUnsampledZeroAlloc asserts it).
func BenchmarkTraceRecorderUnsampled(b *testing.B) {
	rec := txtrace.NewRecorder(1, 1<<30)
	mgr, err := cm.New("polka", 1)
	if err != nil {
		b.Fatal(err)
	}
	rt := stm.New(1, mgr, stm.WithProbe(rec))
	th := rt.Thread(0)
	s := bench.NewList()
	bench.Populate(th, s, 128, 256, 1)
	g := bench.NewGen(bench.Mix{UpdatePct: 0, KeyRange: 256}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := g.Next()
		th.Atomic(func(tx *stm.Tx) { bench.Apply(tx, s, op) })
	}
}
