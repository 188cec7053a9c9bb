package stm_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"wincm/internal/stm"
)

// TestCommittedWriteZeroAlloc is the ISSUE 5 allocation criterion as a
// test: once the per-thread locator pools are warm, a committed write
// transaction allocates nothing — acquisition pops a recycled locator,
// commit-release pops another for the folded quiescent value, and both
// displaced locators go back through retirement.
func TestCommittedWriteZeroAlloc(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	stm.ForceLocatorPooling(rt) // deterministic regardless of the runner
	th := rt.Thread(0)
	vs := make([]*stm.TVar[int], 4)
	for i := range vs {
		vs[i] = stm.NewTVar(0)
	}
	// Warm up: early iterations miss the pool and allocate; retirement
	// batches need a few epochs to start recycling.
	for w := 0; w < 200; w++ {
		th.Atomic(func(tx *stm.Tx) {
			for _, v := range vs {
				stm.Write(tx, v, stm.Read(tx, v)+1)
			}
		})
	}
	allocs := testing.AllocsPerRun(100, func() {
		th.Atomic(func(tx *stm.Tx) {
			for _, v := range vs {
				stm.Write(tx, v, stm.Read(tx, v)+1)
			}
		})
	})
	if allocs != 0 {
		t.Errorf("committed write transaction allocates %.1f per run, want 0", allocs)
	}
}

// TestRecycledLocatorChurn races transactional readers and writers with
// non-transactional Peek and Set on a few hot variables while the locator
// pools recycle continuously underneath. Every writer — Set included —
// only ever stores values ≡ 7 (mod 10), so the assertion is
// reclamation-shaped: any out-of-domain observation means a reader folded
// a recycled locator mid-reuse (a poisoned locator surfaces 0 or a
// half-initialized value, both outside the domain). Run under -race this
// doubles as the happens-before proof for the retire → grace → reuse
// pipeline.
func TestRecycledLocatorChurn(t *testing.T) {
	const (
		txThreads = 8
		extGoros  = 24
		vars      = 4
		txIters   = 800
		extIters  = 2000
	)
	rt := runtimeWith(t, "polka", txThreads)
	rt.SetYieldEvery(4)
	// The churn is deliberately oversubscribed; force pooling on so the
	// test exercises reclamation rather than the disabled-gate fallback.
	stm.ForceLocatorPooling(rt)
	vs := make([]*stm.TVar[int], vars)
	for i := range vs {
		vs[i] = stm.NewTVar(7)
	}
	var bad atomic.Int64
	check := func(x int) {
		if x%10 != 7 || x < 0 {
			bad.Add(1)
		}
	}
	var wg sync.WaitGroup
	// Transactional churn: read every variable (checking the domain) and
	// bump every variable by 10, keeping the domain closed.
	for i := 0; i < txThreads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for n := 0; n < txIters; n++ {
				th.Atomic(func(tx *stm.Tx) {
					for _, v := range vs {
						check(stm.Read(tx, v))
					}
					for _, v := range vs {
						stm.Write(tx, v, stm.Read(tx, v)+10)
					}
				})
			}
		}(rt.Thread(i))
	}
	// External churn: 32 total goroutines with the transactional ones.
	// Half Peek and check; half Set fresh in-domain values, exercising the
	// ext-pin path against concurrent reclamation.
	for g := 0; g < extGoros; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; n < extIters; n++ {
				v := vs[rng.Intn(vars)]
				if seed%2 == 0 {
					check(v.Peek())
				} else {
					v.Set(10*rng.Intn(1_000_000) + 7)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d out-of-domain values observed: a recycled locator leaked into a read", n)
	}
	for i, v := range vs {
		check(v.Peek())
		if bad.Load() != 0 {
			t.Fatalf("final value of var %d out of domain: %d", i, v.Peek())
		}
	}
}
