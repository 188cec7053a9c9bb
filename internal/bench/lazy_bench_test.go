package bench_test

import (
	"sync"
	"testing"

	"wincm/internal/bench"
	"wincm/internal/cm"
	"wincm/internal/rng"
	"wincm/internal/stm"
)

// Lazy-backend counterparts of the eager hot-path cells: the TL2-style
// engine must hold the same allocation discipline as the eager runtime —
// zero on the committed read and write paths, asserted by the stm
// package's TestReadOnlyCommittedZeroAlloc/lazy and
// TestLazyWriteSetRecycled — and the parallel cell shows what commit-time
// validation costs.

func newLazyRT(t testing.TB, m int) *stm.Runtime {
	t.Helper()
	mgr, err := cm.New("polka", m)
	if err != nil {
		t.Fatal(err)
	}
	return stm.New(m, mgr, stm.WithLazyBackend())
}

// BenchmarkLazyCommittedRead measures the committed read-only transaction
// path on the lazy engine: invisible reads logged against the version
// clock, no commit-time work (read-only attempts skip acquisition,
// tick and validation). Run with -benchmem; allocs/op must be 0.
func BenchmarkLazyCommittedRead(b *testing.B) {
	rt := newLazyRT(b, 1)
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

// BenchmarkLazyCommittedWrite measures the uncontended committed write
// path on the lazy engine: buffer four writes, then acquire → tick →
// validate → write back at commit. With the entry and locator pools warm
// this path must report 0 allocs/op.
func BenchmarkLazyCommittedWrite(b *testing.B) {
	rt := newLazyRT(b, 1)
	th := rt.Thread(0)
	var vs [4]*stm.TVar[int]
	for i := range vs {
		vs[i] = stm.NewTVar(0)
	}
	// Warm up: fill the write-set entry pool and push the locator free
	// list past its first grace period so the steady state is measured.
	for i := 0; i < 200; i++ {
		th.Atomic(func(tx *stm.Tx) {
			for _, v := range vs {
				stm.Write(tx, v, i)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(tx *stm.Tx) {
			for _, v := range vs {
				stm.Write(tx, v, i)
			}
		})
	}
}

// BenchmarkLazyListParallel is BenchmarkListParallel on the lazy engine:
// the sorted-list set from 16 goroutines at the paper's 100%-update mix.
// Long traversals are where commit-time validation pays its O(read-set)
// price, so this cell tracks the engines' contention trade-off.
func BenchmarkLazyListParallel(b *testing.B) {
	const threads = 16
	rt := newLazyRT(b, threads)
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

// TestLazyBenchOracle keeps the lazy cells honest: the same generator
// stream applied transactionally on the lazy engine and against a map
// oracle must agree — a cheap end-to-end check that the benchmarks
// measure a correct engine, not a fast wrong one.
func TestLazyBenchOracle(t *testing.T) {
	rt := newLazyRT(t, 1)
	th := rt.Thread(0)
	s := bench.NewList()
	oracle := map[int]bool{}
	r := rng.New(11)
	for i := 0; i < 2000; i++ {
		key := r.Intn(128)
		var got bool
		switch r.Intn(3) {
		case 0:
			th.Atomic(func(tx *stm.Tx) { got = s.Insert(tx, key) })
			if got == oracle[key] {
				t.Fatalf("op %d: Insert(%d) = %v, oracle has=%v", i, key, got, oracle[key])
			}
			oracle[key] = true
		case 1:
			th.Atomic(func(tx *stm.Tx) { got = s.Remove(tx, key) })
			if got != oracle[key] {
				t.Fatalf("op %d: Remove(%d) = %v, oracle has=%v", i, key, got, oracle[key])
			}
			delete(oracle, key)
		default:
			th.Atomic(func(tx *stm.Tx) { got = s.Contains(tx, key) })
			if got != oracle[key] {
				t.Fatalf("op %d: Contains(%d) = %v, oracle has=%v", i, key, got, oracle[key])
			}
		}
	}
}
