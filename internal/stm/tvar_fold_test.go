package stm

import (
	"sync"
	"testing"
	"time"
)

// aggressiveTestCM always aborts the enemy.
type aggressiveTestCM struct{ NopManager }

func (aggressiveTestCM) Resolve(_, _ *Tx, _ Kind, _ int) (Decision, time.Duration) {
	return AbortEnemy, 0
}

// TestSettledViewAllWriterStatuses pins the fold semantics for every writer
// status a locator's owner can be observed in. The Aborted case is spelled
// out explicitly (it used to fall through a default arm together with
// Active, which read correctly only by accident of both returning the old
// value — the version reported for an aborted writer must be the
// pre-acquisition version, never version+1).
func TestSettledViewAllWriterStatuses(t *testing.T) {
	loc := &locator[int]{oldVal: 10, newVal: 20, version: 7}
	cases := []struct {
		name    string
		st      Status
		wantVal int
		wantVer uint64
	}{
		{"committed takes tentative value at version+1", Committed, 20, 8},
		{"aborted keeps committed value at same version", Aborted, 10, 7},
		{"active keeps committed value at same version", Active, 10, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			val, ver := settledView(loc, tc.st)
			if val != tc.wantVal || ver != tc.wantVer {
				t.Errorf("settledView(%v) = (%d, %d), want (%d, %d)",
					tc.st, val, ver, tc.wantVal, tc.wantVer)
			}
		})
	}
}

// TestPeekSeesEveryWriterStatus installs a hand-built owned locator and
// walks its owner's packed status word through all three states, checking
// that Peek (which resolves ownership through ownerView + settledView)
// reports the right value at each.
func TestPeekSeesEveryWriterStatus(t *testing.T) {
	const serial = 3
	var owner Tx
	v := NewTVar(0)
	v.loc.Store(&locator[int]{owner: &owner, serial: serial, oldVal: 10, newVal: 20, version: 7})

	for _, tc := range []struct {
		st   Status
		want int
	}{
		{Active, 10},    // speculative write invisible
		{Aborted, 10},   // write never happened
		{Committed, 20}, // logically folded even before the fold CAS lands
	} {
		owner.status.Store(serial<<statusBits | uint64(tc.st))
		if got := v.Peek(); got != tc.want {
			t.Errorf("Peek with %v owner = %d, want %d", tc.st, got, tc.want)
		}
	}

	// A stale serial means the owner already folded this locator and moved
	// on; Peek must reload rather than trust the word. Repoint the variable
	// at a quiescent locator first so the reload terminates.
	v.loc.Store(&locator[int]{oldVal: 42, version: 8})
	if got := v.Peek(); got != 42 {
		t.Errorf("Peek after refold = %d, want 42", got)
	}
}

// TestReleaseRestoresPrevLocator checks the zero-allocation abort path: an
// acquisition over a quiescent locator links it as prev, and the aborting
// owner's cleanup restores exactly that locator (same pointer, no fold
// allocation).
func TestReleaseRestoresPrevLocator(t *testing.T) {
	rt := New(1, aggressiveTestCM{})
	th := rt.Thread(0)
	v := NewTVar(5)
	before := v.loc.Load()
	aborted := false
	th.Atomic(func(tx *Tx) {
		if !aborted {
			aborted = true
			Write(tx, v, 6)
			tx.Abort()
		}
	})
	if !aborted {
		t.Fatal("first attempt never ran")
	}
	if after := v.loc.Load(); after != before {
		t.Errorf("aborted release did not restore the pre-acquisition locator")
	}
	if got := v.Peek(); got != 5 {
		t.Errorf("value after aborted write = %d, want 5", got)
	}
}

// TestStampLayout pins the reader-stamp packing: thread index round-trips,
// serial round-trips, and the zero word is never a valid stamp.
func TestStampLayout(t *testing.T) {
	for _, id := range []int{0, 1, inlineReaders, MaxThreads - 1} {
		for _, serial := range []uint64{0, 1, 1 << 40} {
			s := makeStamp(id, serial)
			if s == 0 {
				t.Fatalf("stamp(%d, %d) packed to the empty-slot word", id, serial)
			}
			if got := stampThread(s); got != id {
				t.Errorf("stampThread(stamp(%d, %d)) = %d", id, serial, got)
			}
			if got := stampSerial(s); got != serial {
				t.Errorf("stampSerial(stamp(%d, %d)) = %d", id, serial, got)
			}
		}
	}
}

// TestSpillTableSizedForRuntime checks that a runtime wider than the inline
// slots installs a spill table covering every thread, and that concurrent
// installers converge on one table.
func TestSpillTableSizedForRuntime(t *testing.T) {
	const m = inlineReaders + 12
	rt := New(m, aggressiveTestCM{})
	v := NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			th.Atomic(func(tx *Tx) { Read(tx, v) })
		}(rt.Thread(i))
	}
	wg.Wait()
	sp := v.readers.spill.Load()
	if sp == nil {
		t.Fatal("no spill table installed for a runtime wider than the inline slots")
	}
	if len(sp.slots) < m-inlineReaders {
		t.Errorf("spill table has %d slots, want >= %d", len(sp.slots), m-inlineReaders)
	}
}
