package bench_test

import (
	"sync"
	"testing"

	"wincm/internal/bench"
	"wincm/internal/stm"
)

// BenchmarkSetOps measures single-threaded operation cost on each set at
// half occupancy of a 256-key range — the figure experiments' baseline
// transaction duration τ.
func BenchmarkSetOps(b *testing.B) {
	for _, name := range bench.SetNames() {
		b.Run(name, func(b *testing.B) {
			rt := newRT(b, 1)
			th := rt.Thread(0)
			s, _ := bench.NewSet(name)
			bench.Populate(th, s, 128, 256, 1)
			g := bench.NewGen(bench.Mix{UpdatePct: 100, KeyRange: 256}, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := g.Next()
				th.Atomic(func(tx *stm.Tx) { bench.Apply(tx, s, op) })
			}
		})
	}
}

// BenchmarkSetLookup measures pure lookups (no write acquisition).
func BenchmarkSetLookup(b *testing.B) {
	for _, name := range bench.SetNames() {
		b.Run(name, func(b *testing.B) {
			rt := newRT(b, 1)
			th := rt.Thread(0)
			s, _ := bench.NewSet(name)
			bench.Populate(th, s, 128, 256, 1)
			g := bench.NewGen(bench.Mix{UpdatePct: 0, KeyRange: 256}, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := g.Next()
				th.Atomic(func(tx *stm.Tx) { bench.Apply(tx, s, op) })
			}
		})
	}
}

// runListParallel drives the sorted-list set from 16 goroutines at the
// paper's 100%-update mix, telemetry off. One op is one committed
// transaction.
func runListParallel(b *testing.B, yieldEvery int) {
	const threads = 16
	rt := newRT(b, threads)
	rt.SetYieldEvery(yieldEvery)
	s := bench.NewList()
	bench.Populate(rt.Thread(0), s, 128, 256, 1)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		quota := b.N / threads
		if i < b.N%threads {
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

// BenchmarkListParallel is the ISSUE 3 headline benchmark: 16 goroutines,
// natural scheduling. It measures the runtime's conflict-detection and
// bookkeeping overhead under concurrency — the axis the lock-free refactor
// targets; the refactor's 2× target is measured here.
func BenchmarkListParallel(b *testing.B) { runListParallel(b, 0) }

// BenchmarkListParallelInterleaved is the same workload with the runtime's
// interleaving knob forcing a yield every 8 opens, recreating fine-grained
// transaction overlap (and hence heavy contention-manager traffic) on
// machines with fewer cores than threads. Most of its time is scheduler
// quanta and contention-manager waits that both the old and new runtime
// pay identically; it is tracked to catch contention-dynamics regressions,
// not raw hot-path speed.
func BenchmarkListParallelInterleaved(b *testing.B) { runListParallel(b, 8) }

// BenchmarkReadOnlyCommitted measures the committed read-only transaction
// path — the path ISSUE 3 requires to run allocation-free. Run with
// -benchmem; allocs/op must be 0.
func BenchmarkReadOnlyCommitted(b *testing.B) {
	rt := newRT(b, 1)
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
