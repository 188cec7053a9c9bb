package stm_test

import (
	"sync"
	"testing"

	"wincm/internal/cm"
	_ "wincm/internal/core" // registers the window-based managers
	"wincm/internal/stm"
)

// BenchmarkUncontendedRead measures the cost of one transactional read.
func BenchmarkUncontendedRead(b *testing.B) {
	rt := runtimeWith(b, "polka", 1)
	v := stm.NewTVar(42)
	th := rt.Thread(0)
	b.ResetTimer()
	th.Atomic(func(tx *stm.Tx) {
		for i := 0; i < b.N; i++ {
			stm.Read(tx, v)
		}
	})
}

// BenchmarkUncontendedWrite measures the cost of one transactional write
// (after the first, ownership is already held).
func BenchmarkUncontendedWrite(b *testing.B) {
	rt := runtimeWith(b, "polka", 1)
	v := stm.NewTVar(0)
	th := rt.Thread(0)
	b.ResetTimer()
	th.Atomic(func(tx *stm.Tx) {
		for i := 0; i < b.N; i++ {
			stm.Write(tx, v, i)
		}
	})
}

// BenchmarkEmptyAtomic measures per-transaction fixed costs (descriptor,
// hooks, commit CAS).
func BenchmarkEmptyAtomic(b *testing.B) {
	rt := runtimeWith(b, "polka", 1)
	th := rt.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(tx *stm.Tx) {})
	}
}

// BenchmarkEmptyAtomicUntimed is BenchmarkEmptyAtomic on an untimed
// runtime (WithoutTxTiming), the kv shards' mode: no clock read at all.
func BenchmarkEmptyAtomicUntimed(b *testing.B) {
	rt := runtimeWith(b, "polka", 1, stm.WithoutTxTiming())
	th := rt.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(tx *stm.Tx) {})
	}
}

// BenchmarkReadModifyWrite measures a minimal useful transaction.
func BenchmarkReadModifyWrite(b *testing.B) {
	rt := runtimeWith(b, "polka", 1)
	v := stm.NewTVar(0)
	th := rt.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(tx *stm.Tx) {
			stm.Write(tx, v, stm.Read(tx, v)+1)
		})
	}
}

// BenchmarkContendedCounter measures a hot counter under each manager
// family representative with 4 threads.
func BenchmarkContendedCounter(b *testing.B) {
	for _, name := range []string{"backoff", "polka", "greedy", "priority", "online-dynamic"} {
		b.Run(name, func(b *testing.B) {
			mgr, err := cm.New(name, 4)
			if err != nil {
				b.Fatal(err)
			}
			rt := stm.New(4, mgr)
			rt.SetYieldEvery(8)
			v := stm.NewTVar(0)
			b.ResetTimer()
			var wg sync.WaitGroup
			for t := 0; t < 4; t++ {
				quota := b.N / 4
				if t < b.N%4 {
					quota++
				}
				wg.Add(1)
				go func(th *stm.Thread, quota int) {
					defer wg.Done()
					for i := 0; i < quota; i++ {
						th.Atomic(func(tx *stm.Tx) {
							stm.Write(tx, v, stm.Read(tx, v)+1)
						})
					}
				}(rt.Thread(t), quota)
			}
			wg.Wait()
			b.StopTimer()
			if got := v.Peek(); got != b.N {
				b.Fatalf("counter = %d, want %d", got, b.N)
			}
		})
	}
}

// BenchmarkLargeReadSet measures a transaction reading many variables
// (visible-read registration cost).
func BenchmarkLargeReadSet(b *testing.B) {
	rt := runtimeWith(b, "polka", 1)
	vars := make([]*stm.TVar[int], 128)
	for i := range vars {
		vars[i] = stm.NewTVar(i)
	}
	th := rt.Thread(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(func(tx *stm.Tx) {
			sum := 0
			for _, v := range vars {
				sum += stm.Read(tx, v)
			}
			stm.Write(tx, vars[0], sum)
		})
	}
}
