package stm_test

import (
	"sync"
	"testing"
	"time"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

// Conformance suite: the semantics the layers above the engine rely on.
// The cases are written against the public API only. They run under an
// "eager" subtest — the protocol's name, kept from when the suite also ran
// over a second engine, so the case names are stable.

func TestEngineConformance(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"ReadOwnWrite", conformReadOwnWrite},
		{"ModifySingleOpen", conformModify},
		{"AbortRollsBack", conformAbortRollsBack},
		{"NoDirtyReads", conformNoDirtyReads},
		{"CounterParallel", conformCounterParallel},
		{"SnapshotConsistency", conformSnapshotConsistency},
		{"PeekSetInterplay", conformPeekSet},
		{"AllManagersCommit", conformAllManagers},
		{"FallbackToken", conformFallback},
		{"WatchdogQuiescent", conformWatchdog},
	}
	t.Run("eager", func(t *testing.T) {
		for _, c := range cases {
			t.Run(c.name, c.run)
		}
	})
}

// conformReadOwnWrite: a transaction observes its own tentative writes,
// including write-after-write and read-after-write chains.
func conformReadOwnWrite(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(1)
	u := stm.NewTVar("a")
	info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, 2)
		if got := stm.Read(tx, v); got != 2 {
			t.Errorf("read-own-write: got %d, want 2", got)
		}
		stm.Write(tx, v, 3)
		stm.Write(tx, u, "b")
		if got := stm.Read(tx, v); got != 3 {
			t.Errorf("read-own-rewrite: got %d, want 3", got)
		}
		if got := stm.Read(tx, u); got != "b" {
			t.Errorf("read-own-write (second var): got %q, want b", got)
		}
	})
	if info.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", info.Attempts)
	}
	if got := v.Peek(); got != 3 {
		t.Errorf("after commit: got %d, want 3", got)
	}
	if got := u.Peek(); got != "b" {
		t.Errorf("after commit: got %q, want b", got)
	}
}

// conformModify: Modify/ModifyArg reads the current value (tentative or
// committed) and writes through; lost updates are impossible.
func conformModify(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(10)
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Modify(tx, v, func(x int) int { return x + 1 })
		stm.Modify(tx, v, func(x int) int { return x * 2 })
		if got := stm.Read(tx, v); got != 22 {
			t.Errorf("modify chain: got %d, want 22", got)
		}
	})
	if got := v.Peek(); got != 22 {
		t.Errorf("after commit: got %d, want 22", got)
	}
}

// conformAbortRollsBack: an aborted attempt leaves no trace, and the
// retry sees the committed state.
func conformAbortRollsBack(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(5)
	tries := 0
	info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
		tries++
		if got := stm.Read(tx, v); got != 5 {
			t.Errorf("attempt %d read %d, want 5 (rollback leaked)", tries, got)
		}
		stm.Write(tx, v, 99)
		if tries == 1 {
			tx.Abort()
			stm.Read(tx, v) // dead-attempt check unwinds into a retry
		}
	})
	if info.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", info.Attempts)
	}
	if got := v.Peek(); got != 99 {
		t.Errorf("after commit: got %d, want 99", got)
	}
}

// conformNoDirtyReads: concurrent transactions never observe another
// attempt's uncommitted write. A writer parks mid-transaction (on a
// channel handshake through chaos-free plain code is impossible, so it
// parks by doing a long transaction body) while readers hammer the
// variable; every read must be one of the committed values.
func conformNoDirtyReads(t *testing.T) {
	rt := runtimeWith(t, "polka", 2)
	rt.SetYieldEvery(2)
	v := stm.NewTVar(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			rt.Thread(0).Atomic(func(tx *stm.Tx) {
				cur := stm.Read(tx, v)
				stm.Write(tx, v, cur+2) // committed values stay even
			})
		}
	}()
	for i := 0; i < 200; i++ {
		rt.Thread(1).Atomic(func(tx *stm.Tx) {
			if got := stm.Read(tx, v); got%2 != 0 {
				t.Errorf("dirty read: %d", got)
			}
		})
	}
	<-done
	if got := v.Peek(); got != 400 {
		t.Errorf("final value %d, want 400", got)
	}
}

// conformCounterParallel: no lost updates under contention.
func conformCounterParallel(t *testing.T) {
	const threads, perThread = 4, 300
	rt := runtimeWith(t, "polka", threads)
	rt.SetYieldEvery(2)
	stm.ForceLocatorPooling(rt)
	v := stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < perThread; j++ {
				th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, v, stm.Read(tx, v)+1)
				})
			}
		}(rt.Thread(i))
	}
	wg.Wait()
	if got := v.Peek(); got != threads*perThread {
		t.Errorf("counter = %d, want %d (lost updates)", got, threads*perThread)
	}
}

// conformSnapshotConsistency: transactions only ever observe consistent
// snapshots (opacity smoke test): writers keep two variables equal,
// readers must never see them differ — even inside attempts that go on
// to abort, since a torn snapshot would fail the in-callback check.
func conformSnapshotConsistency(t *testing.T) {
	const threads, perThread = 4, 250
	rt := runtimeWith(t, "polka", threads)
	rt.SetYieldEvery(2)
	a, b := stm.NewTVar(0), stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < perThread; j++ {
				if th.ID()%2 == 0 {
					th.Atomic(func(tx *stm.Tx) {
						n := stm.Read(tx, a) + 1
						stm.Write(tx, a, n)
						stm.Write(tx, b, n)
					})
				} else {
					th.Atomic(func(tx *stm.Tx) {
						x := stm.Read(tx, a)
						y := stm.Read(tx, b)
						if x != y {
							t.Errorf("torn snapshot: a=%d b=%d", x, y)
						}
					})
				}
			}
		}(rt.Thread(i))
	}
	wg.Wait()
	if x, y := a.Peek(), b.Peek(); x != y {
		t.Errorf("final state torn: a=%d b=%d", x, y)
	}
}

// conformPeekSet: non-transactional Set between transactions is visible
// to subsequent transactions.
func conformPeekSet(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(0)
	for i := 1; i <= 5; i++ {
		v.Set(i * 10)
	}
	var seen int
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		seen = stm.Read(tx, v)
	})
	if seen != 50 {
		t.Errorf("transaction read %d after Set, want 50", seen)
	}
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, stm.Read(tx, v)+1)
	})
	if got := v.Peek(); got != 51 {
		t.Errorf("after transactional increment: %d, want 51", got)
	}
}

// conformAllManagers: all registered contention managers commit work
// unmodified. Two threads conflict on one variable per manager.
func conformAllManagers(t *testing.T) {
	for _, name := range cm.Names() {
		const threads, perThread = 2, 40
		rt := runtimeWith(t, name, threads)
		rt.SetYieldEvery(2)
		v := stm.NewTVar(0)
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(th *stm.Thread) {
				defer wg.Done()
				for j := 0; j < perThread; j++ {
					th.Atomic(func(tx *stm.Tx) {
						stm.Write(tx, v, stm.Read(tx, v)+1)
					})
				}
			}(rt.Thread(i))
		}
		wg.Wait()
		if got := v.Peek(); got != threads*perThread {
			t.Errorf("manager %q: counter %d, want %d", name, got, threads*perThread)
		}
	}
}

// conformFallback: the serialized-fallback token is acquired after the
// attempt budget and released on commit.
func conformFallback(t *testing.T) {
	rt := runtimeWith(t, "greedy", 2, stm.WithFallback(2, 0))
	v := stm.NewTVar(0)
	attempts := 0
	info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, 1)
		attempts++
		if attempts <= 2 {
			tx.Abort()
			stm.Read(tx, v)
		}
	})
	if !info.Fallback {
		t.Fatalf("transaction never took the fallback token (attempts=%d)", attempts)
	}
	if holder := rt.FallbackHolder(); holder != nil {
		t.Fatalf("fallback token still held after commit")
	}
	if got := v.Peek(); got != 1 {
		t.Fatalf("fallback commit lost: %d", got)
	}
}

// conformWatchdog: the watchdog can start, observe a quiescent runtime
// and stop.
func conformWatchdog(t *testing.T) {
	rt := runtimeWith(t, "polka", 2)
	wd := rt.StartWatchdog(5 * time.Millisecond)
	defer wd.Stop()
	v := stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, v, stm.Read(tx, v)+1)
				})
			}
		}(rt.Thread(i))
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for !wd.Quiescent() {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never saw the runtime quiescent")
		}
		time.Sleep(time.Millisecond)
	}
	if got := v.Peek(); got != 200 {
		t.Fatalf("counter %d, want 200", got)
	}
}
