package stm

import (
	"sync"
	"testing"
)

// Unit tests for the lazy engine's version clock and attempt-state
// plumbing; cross-backend behavior is covered by the conformance suite
// (engine_conformance_test.go).

func lazyTestRuntime(m int) *Runtime {
	return New(m, karmaTied{}, WithLazyBackend())
}

func TestVersionClockTickMonotoneAndAboveFloor(t *testing.T) {
	rt := lazyTestRuntime(2)
	tx := &rt.threads[0].tx
	var c versionClock
	if got := c.current(); got != 0 {
		t.Fatalf("fresh clock reads %d, want 0", got)
	}
	last := uint64(0)
	for i := 0; i < 100; i++ {
		wv := c.tick(tx, 0)
		if wv <= last {
			t.Fatalf("tick %d not monotone: %d after %d", i, wv, last)
		}
		last = wv
	}
	// A floor above the clock must be exceeded, not merely met.
	wv := c.tick(tx, 1000)
	if wv <= 1000 {
		t.Fatalf("floored tick returned %d, want > 1000", wv)
	}
	if cur := c.current(); cur != wv {
		t.Fatalf("current %d after tick %d", cur, wv)
	}
}

func TestVersionClockAdvanceTo(t *testing.T) {
	var c versionClock
	c.advanceTo(42)
	if got := c.current(); got != 42 {
		t.Fatalf("current = %d after advanceTo(42)", got)
	}
	c.advanceTo(7) // never moves backwards
	if got := c.current(); got != 42 {
		t.Fatalf("current = %d after advanceTo(7), want 42", got)
	}
}

// TestVersionClockParallelTicksUnique-ish: concurrent ticks may tie
// across shards (documented, safe), but each shard's stream must be
// strictly monotone and the clock must end at least as high as the
// number of ticks any single thread performed.
func TestVersionClockParallelTicks(t *testing.T) {
	const threads, ticks = 4, 500
	rt := lazyTestRuntime(threads)
	var c versionClock
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(tx *Tx) {
			defer wg.Done()
			last := uint64(0)
			for j := 0; j < ticks; j++ {
				wv := c.tick(tx, 0)
				if wv <= last {
					t.Errorf("thread %d: tick not monotone (%d after %d)", tx.D.ThreadID, wv, last)
					return
				}
				last = wv
			}
		}(&rt.threads[i].tx)
	}
	wg.Wait()
	if got := c.current(); got < ticks {
		t.Fatalf("clock %d after %d ticks/thread", got, ticks)
	}
}

// TestLazyTalliesFoldable: the lazy attempt tallies surface through the
// Tx accessors after commit (telemetry folds them at OnCommit/OnAbort),
// and are zero on the eager engine.
func TestLazyTalliesFoldable(t *testing.T) {
	rt := lazyTestRuntime(1)
	v := NewTVar(0)
	// Outrun the clock so the first transactional read must extend.
	for i := 0; i < 3; i++ {
		v.Set(i)
	}
	th := rt.Thread(0)
	var ext int
	th.Atomic(func(tx *Tx) {
		Write(tx, v, Read(tx, v)+1)
		ext = tx.ValidationExtensions()
	})
	if ext == 0 {
		t.Error("Set-outrun read performed no snapshot extension")
	}
	tx := &th.tx
	if tx.CommitValidationNs() < 0 {
		t.Error("negative commit validation time")
	}
	// Eager runtimes never touch the lazy tallies.
	ert := New(1, karmaTied{})
	ev := NewTVar(0)
	ert.Thread(0).Atomic(func(tx *Tx) {
		Write(tx, ev, Read(tx, ev)+1)
		if tx.ClockCASRetries() != 0 || tx.ValidationExtensions() != 0 || tx.CommitValidationNs() != 0 {
			t.Error("eager attempt carries lazy tallies")
		}
	})
}

// TestLazyWriteSetRecycled: the committed write path reuses entry boxes
// and locators — steady-state commits allocate nothing beyond the first
// few attempts' warm-up.
func TestLazyWriteSetRecycled(t *testing.T) {
	rt := lazyTestRuntime(1)
	rt.SetLocatorPooling(true)
	v := NewTVar(0)
	th := rt.Thread(0)
	for i := 0; i < 200; i++ { // warm the pools
		th.Atomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
	}
	allocs := testing.AllocsPerRun(200, func() {
		th.Atomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
	})
	if allocs > 0 {
		t.Errorf("steady-state lazy read-modify-write commits allocate %.1f/op, want 0", allocs)
	}
}

// TestBackendOptionRejectsUnknown covers the registry helper CLIs rely on.
func TestBackendOptionRejectsUnknown(t *testing.T) {
	for _, name := range []string{"", BackendEager, BackendLazy} {
		if _, err := BackendOption(name); err != nil {
			t.Errorf("BackendOption(%q) = %v, want nil", name, err)
		}
	}
	if _, err := BackendOption("htm"); err == nil {
		t.Error("BackendOption(htm) succeeded, want error")
	}
}
