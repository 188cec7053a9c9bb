package stm_test

import (
	"sync"
	"testing"
	"time"

	"wincm/internal/stm"
)

// starver is a contention manager that permanently victimizes thread 0:
// whenever thread 0 is the attacker it aborts itself, and whenever it is
// the enemy it is killed. Without the fallback token thread 0 can never
// commit while others are active — the adversarial schedule Polka's
// starvation risk amounts to. It never looks at the fallback token: the
// runtime decides token conflicts before any manager is asked.
type starver struct{ stm.NopManager }

func (starver) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	if tx.D.ThreadID == 0 {
		return stm.AbortSelf, 0
	}
	return stm.AbortEnemy, 0
}

// TestFallbackBreaksStarvation: under the starver manager, thread 0
// exhausts its attempt budget, takes the serialized-fallback token and
// commits anyway, with TxInfo reporting the fallback entry.
func TestFallbackBreaksStarvation(t *testing.T) {
	const budget = 4
	rt := stm.New(2, starver{}, stm.WithFallback(budget, 0))
	rt.SetYieldEvery(1)
	v := stm.NewTVar(0)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				rt.Thread(1).Atomic(func(tx *stm.Tx) {
					stm.Write(tx, v, stm.Read(tx, v)+1)
				})
			}
		}
	}()

	info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, stm.Read(tx, v)+1000)
	})
	close(stop)
	<-done

	// Committing at all is the liveness assertion (the starver would
	// otherwise spin forever); past the budget the commit must have gone
	// through the token.
	if info.Attempts > budget && !info.Fallback {
		t.Errorf("thread 0 committed after %d attempts (budget %d) without the fallback token", info.Attempts, budget)
	}
	if rt.FallbackHolder() != nil {
		t.Errorf("fallback token still held after commit")
	}
	if got := v.Peek(); got < 1000 {
		t.Errorf("counter = %d, want ≥ 1000 (thread 0's commit missing)", got)
	}
}

// waiter is a contention manager that answers every conflict, from either
// side, with a short Wait and never consults the fallback token. Two
// transactions that each wait for the other wait forever under it.
type waiter struct{ stm.NopManager }

func (waiter) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	return stm.Wait, time.Microsecond
}

// TestFallbackOverridesManager: the token's precedence does not depend on
// the manager. Thread 0 burns its attempt budget and takes the token; then
// both threads read v and both write it, so each write meets the other's
// visible read and the waiter manager parks both attempts on each other.
// The runtime decides the token holder's conflicts before the manager is
// asked, so thread 0 aborts thread 1, commits, and thread 1's retry commits
// after it.
func TestFallbackOverridesManager(t *testing.T) {
	const budget = 4
	rt := stm.New(2, waiter{}, stm.WithFallback(budget, 0))
	v := stm.NewTVar(0)
	read := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	var infos [2]stm.TxInfo
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			synced := false
			infos[i] = rt.Thread(i).Atomic(func(tx *stm.Tx) {
				if i == 0 && !tx.HoldsFallback() {
					tx.Abort()
					stm.Read(tx, v) // dead-attempt check unwinds into a retry
				}
				x := stm.Read(tx, v)
				if !synced {
					// Both reads are visible before either write.
					synced = true
					close(read[i])
					<-read[1-i]
				}
				stm.Write(tx, v, x+1)
			})
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("livelock: the token holder and its enemy waited on each other under a manager that only waits")
	}
	if !infos[0].Fallback || infos[0].Attempts != budget+1 {
		t.Errorf("thread 0 committed after %d attempts, fallback %v; want %d attempts with the token", infos[0].Attempts, infos[0].Fallback, budget+1)
	}
	if got := v.Peek(); got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}
	if rt.FallbackHolder() != nil {
		t.Errorf("fallback token still held after both commits")
	}
}

// TestFallbackReleasedOnCommit is the deterministic exit path: a
// transaction that burns its attempt budget takes the token, commits while
// holding it, and leaves it free — a wedged token would serialize the
// runtime forever behind a dead descriptor.
func TestFallbackReleasedOnCommit(t *testing.T) {
	rt := stm.New(2, starver{}, stm.WithFallback(2, 0))
	v := stm.NewTVar(0)

	// Burn the attempt budget so the next attempt takes the token.
	attempts := 0
	info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, 1)
		attempts++
		if attempts <= 2 {
			tx.Abort()
			stm.Read(tx, v) // dead-attempt check unwinds into a retry
		}
	})
	if !info.Fallback {
		t.Fatalf("transaction never took the fallback token (attempts=%d)", attempts)
	}
	if holder := rt.FallbackHolder(); holder != nil {
		t.Fatalf("fallback token still held by %p after commit", holder)
	}

	// Liveness: another thread's transaction must commit promptly.
	done := make(chan struct{})
	go func() {
		rt.Thread(1).Atomic(func(tx *stm.Tx) {
			stm.Write(tx, v, 2)
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("runtime wedged behind a stale fallback token")
	}
}

// timings are the two clock modes a runtime can be built in: timed (the
// default) and untimed (WithoutTxTiming, the kv shards' mode), whose
// fallback deadline is stamped at the first abort and whose births come
// from the runtime tick.
var timings = []struct {
	name string
	opts []stm.Option
}{
	{"timed", nil},
	{"untimed", []stm.Option{stm.WithoutTxTiming()}},
}

// TestFallbackDeadlineBudget: the deadline budget alone (no attempt cap)
// also arms the escape hatch.
func TestFallbackDeadlineBudget(t *testing.T) {
	for _, tc := range timings {
		t.Run(tc.name, func(t *testing.T) {
			const deadline = time.Millisecond
			opts := append([]stm.Option{stm.WithFallback(0, deadline)}, tc.opts...)
			rt := stm.New(2, starver{}, opts...)
			v := stm.NewTVar(0)
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
						rt.Thread(1).Atomic(func(tx *stm.Tx) {
							stm.Write(tx, v, stm.Read(tx, v)+1)
							time.Sleep(50 * time.Microsecond) // hold v: force conflicts
						})
					}
				}
			}()
			start := time.Now()
			info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
				stm.Write(tx, v, stm.Read(tx, v)+1)
			})
			elapsed := time.Since(start)
			close(stop)
			<-done
			// Returning is the liveness assertion; a long starvation stretch must
			// have been broken by the deadline budget.
			if elapsed > 50*deadline && !info.Fallback {
				t.Errorf("thread 0 starved for %v (deadline %v) without entering fallback (%d attempts)", elapsed, deadline, info.Attempts)
			}
		})
	}
}

// TestDeadlineCountsFromFirstAbort: a transaction that aborts every attempt
// without the token, on a runtime with only a deadline budget, is still
// retrying one deadline after its first abort, takes the token, and
// commits with it.
func TestDeadlineCountsFromFirstAbort(t *testing.T) {
	for _, tc := range timings {
		t.Run(tc.name, func(t *testing.T) {
			const deadline = 2 * time.Millisecond
			rt := stm.New(1, starver{}, append(tc.opts, stm.WithFallback(0, deadline))...)
			v := stm.NewTVar(0)
			var firstAbort time.Time
			info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
				if !tx.HoldsFallback() {
					if tx.D.Attempts == 1 {
						firstAbort = time.Now()
					}
					tx.Abort()
				}
				stm.Write(tx, v, stm.Read(tx, v)+1)
			})
			if !info.Fallback {
				t.Errorf("info = %+v, want a fallback commit", info)
			}
			if waited := time.Since(firstAbort); waited < deadline {
				t.Errorf("took the token %v after the first abort, before the %v deadline", waited, deadline)
			}
		})
	}
}

// TestWatchdogRescuesStalledRuntime: a transaction that freezes mid-flight
// longer than the watchdog interval trips the watchdog, is granted the
// fallback token, and the runtime reports quiescence afterwards.
func TestWatchdogRescuesStalledRuntime(t *testing.T) {
	for _, tc := range timings {
		t.Run(tc.name, func(t *testing.T) {
			rt := stm.New(1, starver{}, tc.opts...)
			wd := rt.StartWatchdog(time.Millisecond)
			v := stm.NewTVar(0)
			info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
				stm.Write(tx, v, stm.Read(tx, v)+1)
				if tx.D.Attempts == 1 {
					time.Sleep(20 * time.Millisecond) // no commits while stalled
				}
			})
			wd.Stop()
			if wd.Trips() == 0 {
				t.Errorf("watchdog saw a 20ms stall at 1ms interval but never tripped")
			}
			if !info.Fallback {
				t.Errorf("stalled transaction was not granted the fallback token")
			}
			if !wd.Quiescent() {
				t.Errorf("runtime not quiescent after all transactions returned")
			}
			if got := v.Peek(); got != 1 {
				t.Errorf("counter = %d, want 1", got)
			}
		})
	}
}

// TestWatchdogIdleRuntimeNoTrips: an idle runtime (no in-flight
// transactions) never trips the watchdog.
func TestWatchdogIdleRuntimeNoTrips(t *testing.T) {
	rt := stm.New(1, starver{})
	wd := rt.StartWatchdog(time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	wd.Stop()
	if n := wd.Trips(); n != 0 {
		t.Errorf("idle runtime tripped the watchdog %d times", n)
	}
	if !wd.Quiescent() {
		t.Errorf("idle runtime reported non-quiescent")
	}
}

// TestWatchdogStopIsFinal: two racing Stops both return, and no tick runs
// after Stop returns although the runtime is still stalled.
func TestWatchdogStopIsFinal(t *testing.T) {
	rt := stm.New(1, starver{})
	wd := rt.StartWatchdog(time.Millisecond)
	stalled, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		rt.Thread(0).Atomic(func(tx *stm.Tx) {
			if tx.D.Attempts == 1 {
				close(stalled)
				time.Sleep(40 * time.Millisecond)
			}
		})
	}()
	<-stalled
	time.Sleep(10 * time.Millisecond)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() { defer wg.Done(); wd.Stop() }()
	}
	wg.Wait()
	trips := wd.Trips()
	time.Sleep(10 * time.Millisecond)
	if got := wd.Trips(); got != trips {
		t.Errorf("watchdog tripped %d times after Stop returned", got-trips)
	}
	<-done
}
