package bench_test

import (
	"fmt"
	"sync"
	"testing"

	"wincm/internal/bench"
	"wincm/internal/rng"
	"wincm/internal/stm"
	"wincm/internal/vacation"
)

// Write-heavy benchmark cells (ISSUE 5): the paper's update-dominated
// workloads — RBTree fixups and Vacation reservations — are where the
// write path's per-operation locator allocation used to dominate. These
// cells track the pooled (epoch-reclaimed) write path.

// runSetParallel drives the named set from `threads` goroutines at the
// paper's 100%-update mix, natural scheduling. One op is one committed
// transaction.
func runSetParallel(b *testing.B, name string, threads int) {
	rt := newRT(b, threads)
	s, err := bench.NewSet(name)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkRBTreeParallel is the paper's RBTree benchmark at 100%
// updates: inserts and deletes whose fixup chains make it the most
// write-acquisition-heavy of the set workloads.
func BenchmarkRBTreeParallel(b *testing.B) {
	for _, m := range []int{8, 16} {
		b.Run(fmt.Sprintf("M%d", m), func(b *testing.B) {
			runSetParallel(b, "rbtree", m)
		})
	}
}

// BenchmarkVacationParallel is the STAMP Vacation slice at the medium
// contention scenario: reservation transactions with multi-table
// read/write sets.
func BenchmarkVacationParallel(b *testing.B) {
	for _, m := range []int{8, 16} {
		b.Run(fmt.Sprintf("M%d", m), func(b *testing.B) {
			rt := newRT(b, m)
			cfg, err := vacation.Scenario("medium")
			if err != nil {
				b.Fatal(err)
			}
			v := vacation.New(cfg)
			v.Setup(rt.Thread(0))
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < m; i++ {
				quota := b.N / m
				if i < b.N%m {
					quota++
				}
				wg.Add(1)
				go func(id, quota int, th *stm.Thread) {
					defer wg.Done()
					c := v.NewClient(uint64(id)*2654435761 + 1)
					for n := 0; n < quota; n++ {
						c.Do(th)
					}
				}(i, quota, rt.Thread(i))
			}
			wg.Wait()
			b.StopTimer()
			if err := v.Verify(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWriteHeavyParallel measures the pure write-acquisition path
// under concurrency: 16 goroutines, each transaction blind-writing 4 of
// 64 variables. There are no transactional reads, so every open is an
// ownership acquisition — the path the locator pool must keep
// allocation-free.
func BenchmarkWriteHeavyParallel(b *testing.B) {
	const threads, vars, writesPerTx = 16, 64, 4
	rt := newRT(b, threads)
	vs := make([]*stm.TVar[int], vars)
	for i := range vs {
		vs[i] = stm.NewTVar(i)
	}
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
			r := rng.New(uint64(id)*7919 + 3)
			for n := 0; n < quota; n++ {
				th.Atomic(func(tx *stm.Tx) {
					for k := 0; k < writesPerTx; k++ {
						stm.Write(tx, vs[r.Intn(vars)], n)
					}
				})
			}
		}(i, quota, rt.Thread(i))
	}
	wg.Wait()
}

// BenchmarkCommittedWrite measures the committed write path with no
// contention: acquire → commit → release on four variables per
// transaction. Run with -benchmem; with the locator pool warm this path
// must report 0 allocs/op (the ISSUE 5 criterion; stm's
// TestCommittedWriteZeroAlloc asserts it).
func BenchmarkCommittedWrite(b *testing.B) {
	rt := newRT(b, 1)
	th := rt.Thread(0)
	var vs [4]*stm.TVar[int]
	for i := range vs {
		vs[i] = stm.NewTVar(0)
	}
	// Warm up: fill the per-thread locator free list past its first
	// grace period so the steady state is measured, not pool ramp-up.
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
