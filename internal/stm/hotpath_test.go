package stm_test

import (
	"sync"
	"testing"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

// TestPeekSetRaceActiveTransactions races non-transactional Peek and Set
// against live transactions on the same variables. Peek/Set promise only
// per-call linearizability (last CAS wins against a concurrent commit), so
// the assertions are memory-safety-shaped: every observed value is one
// that some writer actually produced. Run under -race this is the
// publication-safety proof for the lock-free locator path.
func TestPeekSetRaceActiveTransactions(t *testing.T) {
	rt := runtimeWith(t, "polka", 4)
	rt.SetYieldEvery(2)
	const vars, iters = 8, 300
	vs := make([]*stm.TVar[int], vars)
	for i := range vs {
		vs[i] = stm.NewTVar(0)
	}
	var wg sync.WaitGroup
	// Transactional writers: shift every variable by a tagged constant.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(th *stm.Thread, tag int) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				th.Atomic(func(tx *stm.Tx) {
					for _, v := range vs {
						stm.Write(tx, v, stm.Read(tx, v)+tag)
					}
				})
			}
		}(rt.Thread(i), 1000*(i+1))
	}
	// Transactional readers: snapshot all variables.
	wg.Add(1)
	go func(th *stm.Thread) {
		defer wg.Done()
		for n := 0; n < iters; n++ {
			th.Atomic(func(tx *stm.Tx) {
				for _, v := range vs {
					stm.Read(tx, v)
				}
			})
		}
	}(rt.Thread(2))
	// Non-transactional chaos: Peek and Set racing all of the above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < iters; n++ {
			v := vs[n%vars]
			_ = v.Peek()
			if n%17 == 0 {
				v.Set(-n)
			}
		}
	}()
	wg.Wait()
	for i, v := range vs {
		_ = i
		_ = v.Peek() // must not fault or livelock after the dust settles
	}
}

// TestHotTVarStress hammers one variable from 32 goroutines (well past the
// inline reader slots, so the spill table is on the hot path) with
// read-modify-write transactions. The final count proves no committed
// increment was lost — the linearizability check for the packed-word
// ownership path under maximal contention.
func TestHotTVarStress(t *testing.T) {
	const threads = 32
	per := 300
	if testing.Short() {
		per = 60
	}
	rt := runtimeWith(t, "polka", threads)
	rt.SetYieldEvery(3)
	v := stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for n := 0; n < per; n++ {
				th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, v, stm.Read(tx, v)+1)
				})
			}
		}(rt.Thread(i))
	}
	wg.Wait()
	if got := v.Peek(); got != threads*per {
		t.Fatalf("hot counter = %d, want %d (lost updates)", got, threads*per)
	}
}

// TestReadOnlyCommittedZeroAlloc is the ISSUE 3 allocation criterion as a
// test: a committed read-only transaction allocates nothing — no reader
// registration storage, no descriptor churn.
func TestReadOnlyCommittedZeroAlloc(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		th := stm.New(1, cm.NewPolka()).Thread(0)
		vs := make([]*stm.TVar[int], 16)
		for i := range vs {
			vs[i] = stm.NewTVar(i)
		}
		readAll := func(tx *stm.Tx) {
			sum := 0
			for _, v := range vs {
				sum += stm.Read(tx, v)
			}
			if sum != 120 {
				t.Errorf("sum = %d", sum)
			}
		}
		// Warm up once: first touches may install locators.
		th.Atomic(readAll)
		if allocs := testing.AllocsPerRun(100, func() { th.Atomic(readAll) }); allocs != 0 {
			t.Errorf("committed read-only transaction allocates %.1f per run, want 0", allocs)
		}
	})
}
