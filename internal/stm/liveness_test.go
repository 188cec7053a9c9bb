package stm

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// karmaTied is the tie-goes-to-attacker decision shape, defined here
// because an in-package test cannot import cm (import cycle): work invested
// is priority, and equal priorities abort the enemy. Registered Polka has
// the same shape at a karma gap of 0 (it waits only gap rounds). Under this
// policy, transactions whose priorities are locked together mutually
// satisfy "mine >= theirs" and abort each other on every conflict — the
// kill cycle that allocator jitter used to break by accident before the
// write path stopped allocating (see abortBackoff).
type karmaTied struct{}

func (karmaTied) Begin(tx *Tx)     {}
func (karmaTied) Opened(tx *Tx)    { tx.D.Karma.Add(1) }
func (karmaTied) Committed(tx *Tx) { tx.D.Karma.Store(0) }
func (karmaTied) Aborted(tx *Tx)   {}
func (karmaTied) Resolve(tx, enemy *Tx, kind Kind, attempt int) (Decision, time.Duration) {
	if tx.D.Karma.Load()+int64(attempt-1) >= enemy.D.Karma.Load() {
		return AbortEnemy, 0
	}
	return Wait, time.Microsecond
}

// TestVisibleKillCycleLiveness regression-tests the abort backoff: with a
// zero-allocation write path, symmetric read-then-write-all transactions
// under a tie-goes-to-attacker manager reach equal priorities and abort
// each other in lockstep forever unless the runtime injects jitter. The
// grid covers the thread/variable shapes that reproduced the livelock
// reliably before the backoff existed (threads=3, vars=2 locked up within
// a handful of configurations). The grid runs first on one P, where with
// the jitter removed it livelocked every time (on two Ps the scheduler's
// own noise broke the cycle and it passed without it), then again at the
// test's own GOMAXPROCS so the threads also run truly in parallel.
func TestVisibleKillCycleLiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("liveness soak")
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, procs := range []int{1, prev} {
		runtime.GOMAXPROCS(procs)
		killCycleGrid(t, procs)
	}
}

func killCycleGrid(t *testing.T, procs int) {
	for iter := 0; iter < 60; iter++ {
		threads := 2 + iter%4
		vars := 1 + (iter/4)%5
		rt := New(threads, karmaTied{})
		rt.SetYieldEvery(2)
		// The kill cycle only closes when attempts run jitter-free, which
		// needs the zero-allocation path — keep pooling on regardless of
		// the machine's core count.
		ForceLocatorPooling(rt)
		vs := make([]*TVar[int], vars)
		for i := range vs {
			vs[i] = NewTVar(0)
		}
		const perThread = 25
		var wg sync.WaitGroup
		done := make(chan struct{})
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(th *Thread) {
				defer wg.Done()
				for j := 0; j < perThread; j++ {
					th.Atomic(func(tx *Tx) {
						base := Read(tx, vs[0])
						for _, v := range vs[1:] {
							Read(tx, v)
						}
						for _, v := range vs {
							Write(tx, v, base+1)
						}
					})
				}
			}(rt.Thread(i))
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("livelock: GOMAXPROCS=%d threads=%d vars=%d never completed", procs, threads, vars)
		}
		want := threads * perThread
		for k, v := range vs {
			if got := v.Peek(); got != want {
				t.Fatalf("GOMAXPROCS=%d threads=%d vars=%d var %d: got %d, want %d (lost update)", procs, threads, vars, k, got, want)
			}
		}
	}
}
