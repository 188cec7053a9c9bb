package stm_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

// TestStalledHolderRemoteAbortLiveness pins down the remote-abort liveness
// property a stalling probe relies on: a thread that
// freezes mid-transaction *while owning acquired variables* (simulating a
// preempted or crashed thread) must not block anyone — every other thread
// commits by aborting the stalled enemy remotely with one CAS, and the
// victim discovers the abort when it wakes, retries and commits too.
//
// Run under -race (the Makefile race target and CI include this package):
// the interesting failure modes here are ownership folds racing the
// stalled writer's status transitions.
func TestStalledHolderRemoteAbortLiveness(t *testing.T) {
	for _, tc := range []struct {
		name    string
		manager stm.ContentionManager
	}{{"abort-enemy", abortEnemy{}}, {"polka", cm.NewPolka()}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const m = 6 // 1 staller + 5 workers
			const perWorker = 40
			rt := stm.New(m, tc.manager)
			rt.SetYieldEvery(2)
			shared := stm.NewTVar(0)
			side := stm.NewTVar(0)

			stalled := make(chan struct{}) // closed once the staller owns shared
			release := make(chan struct{}) // closed after the workers are done

			var stallerInfo stm.TxInfo
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				first := true
				stallerInfo = rt.Thread(0).Atomic(func(tx *stm.Tx) {
					stm.Write(tx, shared, stm.Read(tx, shared)+1)
					stm.Write(tx, side, stm.Read(tx, side)+1)
					if first {
						first = false
						close(stalled)
						<-release // freeze mid-flight, owning shared and side
					}
				})
			}()

			select {
			case <-stalled:
			case <-time.After(10 * time.Second):
				t.Fatal("staller never acquired the shared variables")
			}

			// All workers must commit while the staller is still frozen.
			var workers sync.WaitGroup
			errs := make(chan error, m-1)
			for i := 1; i < m; i++ {
				workers.Add(1)
				go func(th *stm.Thread) {
					defer workers.Done()
					for j := 0; j < perWorker; j++ {
						info := th.Atomic(func(tx *stm.Tx) {
							stm.Write(tx, shared, stm.Read(tx, shared)+1)
						})
						if info.Attempts < 1 {
							errs <- fmt.Errorf("bogus TxInfo: %+v", info)
							return
						}
					}
				}(rt.Thread(i))
			}
			workerDone := make(chan struct{})
			go func() { workers.Wait(); close(workerDone) }()
			select {
			case <-workerDone:
			case <-time.After(30 * time.Second):
				t.Fatal("workers blocked behind a stalled transaction: remote abort is not live")
			}
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// Wake the staller; its first attempt was remote-aborted, so it
			// retries and must commit.
			close(release)
			wg.Wait()
			if stallerInfo.Attempts < 2 {
				t.Errorf("staller committed in %d attempt(s); expected its stalled attempt to be remote-aborted", stallerInfo.Attempts)
			}
			if got, want := shared.Peek(), (m-1)*perWorker+1; got != want {
				t.Errorf("shared = %d, want %d (lost or duplicated increments)", got, want)
			}
			if got := side.Peek(); got != 1 {
				t.Errorf("side = %d, want 1", got)
			}
		})
	}
}

// abortEnemy is the no-policy manager: every conflict aborts the enemy at
// once, so a worker meets the stalled holder and aborts it on first sight.
type abortEnemy struct{ stm.NopManager }

func (abortEnemy) Resolve(_, _ *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	return stm.AbortEnemy, 0
}
