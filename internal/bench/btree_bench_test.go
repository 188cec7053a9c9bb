package bench_test

import (
	"fmt"
	"testing"

	"wincm/internal/stm"
	"wincm/internal/txbtree"
)

// B-link tree benchmark cells (ISSUE 9): the semantic-conflict tree's
// two headline numbers — an allocation-free steady-state lookup and the
// parallel update throughput that key-granularity conflict detection is
// supposed to buy over the tvar-granularity rbtree.

// BenchmarkTxBTreeLookup measures the uncontended transactional lookup:
// traverse to the leaf, log one key read, validate one leaf version at
// commit. Run with -benchmem; with the read/write-set scratch warm this
// path must report 0 allocs/op (the tentpole criterion; txbtree's
// TestLookupZeroAlloc asserts it). The 1,024-key tree stays in the CPU
// caches; the 1M-key one, preloaded ascending as the repo benchmark loads
// its kv workloads, does not, so its lookups miss on every level that does
// not fit.
func BenchmarkTxBTreeLookup(b *testing.B) {
	for _, keys := range []int{1 << 10, 1 << 20} {
		var th *stm.Thread
		var tr *txbtree.Tree[int]
		b.Run(fmt.Sprintf("keys%d", keys), func(b *testing.B) {
			if tr == nil { // built once, not once per b.N round
				th, tr = newRT(b, 1).Thread(0), txbtree.New[int]()
				for k := 0; k < keys; k++ {
					th.Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, k) })
				}
				// Warm up past the per-thread scratch ramp so the steady
				// state is measured, not slice growth.
				for i := 0; i < 200; i++ {
					th.Atomic(func(tx *stm.Tx) { tr.Get(tx, i%keys) })
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				th.Atomic(func(tx *stm.Tx) { tr.Get(tx, (i*7919+13)%keys) })
			}
		})
	}
}

// BenchmarkTxBTreeInsertAscending measures the write a preload makes: one
// Insert per transaction, each key one past the last, continuing a tree
// preloaded ascending with 1M keys as the repo benchmark loads its kv
// workloads. The write's own read starts at the thread's write finger, so
// it does not descend; a leaf split still does, once per run of keys that
// fills a leaf.
func BenchmarkTxBTreeInsertAscending(b *testing.B) {
	const keys = 1 << 20
	var th *stm.Thread
	var tr *txbtree.Tree[int]
	next := 0
	insert := func() {
		th.Atomic(func(tx *stm.Tx) { tr.Insert(tx, next, next) })
		next++
	}
	b.Run(fmt.Sprintf("keys%d", keys), func(b *testing.B) {
		if tr == nil { // built once; each b.N round continues the run
			th, tr = newRT(b, 1).Thread(0), txbtree.New[int]()
			for next < keys {
				insert()
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			insert()
		}
	})
}

// BenchmarkTxBTreeParallel is the rbtree benchmark's workload pointed at
// the B-link tree: the same 100%-update mix, key range and populate as
// BenchmarkRBTreeParallel, so the two cells differ only in conflict
// granularity.
func BenchmarkTxBTreeParallel(b *testing.B) {
	for _, m := range []int{8, 16} {
		b.Run(fmt.Sprintf("M%d", m), func(b *testing.B) {
			runSetParallel(b, "btree", m)
		})
	}
}
