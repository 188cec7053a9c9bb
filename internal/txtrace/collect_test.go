package txtrace

import (
	"testing"
)

// pushThread injects an event directly into a thread's hot ring — the
// in-package shortcut for deterministic collector tests.
func pushThread(rec *Recorder, thread int, e Event) bool {
	return rec.threads[thread].ring.Push(e)
}

func TestCollectorKeepEviction(t *testing.T) {
	rec := NewRecorder(1, 1, 64)
	col := NewCollector(rec, 8)

	for i := int64(0); i < 20; i++ {
		pushThread(rec, 0, Event{TS: i, Thread: 0, Kind: EvBegin})
		if i%5 == 4 {
			col.Poll()
		}
	}
	evs := col.Events()
	if len(evs) != 8 {
		t.Fatalf("retained %d events, want keep=8", len(evs))
	}
	// Evict-oldest: the window holds the newest eight (TS 12..19).
	for i, e := range evs {
		if want := int64(12 + i); e.TS != want {
			t.Errorf("window[%d].TS = %d, want %d", i, e.TS, want)
		}
	}
	if col.Dropped() != 12 {
		t.Errorf("Dropped() = %d, want 12 evicted", col.Dropped())
	}
}

func TestCollectorDroppedMergesRingAndEviction(t *testing.T) {
	rec := NewRecorder(1, 1, 4)
	col := NewCollector(rec, 2)

	// 10 pushes into a 4-slot ring: 6 die hot. The 4 survivors drain into
	// a keep=2 window: 2 more die cold.
	for i := int64(0); i < 10; i++ {
		pushThread(rec, 0, Event{TS: i, Thread: 0, Kind: EvBegin})
	}
	col.Poll()
	if got := col.Dropped(); got != 8 {
		t.Errorf("Dropped() = %d, want 6 ring drops + 2 evictions", got)
	}
	if got := len(col.Events()); got != 2 {
		t.Errorf("retained %d events, want 2", got)
	}
}

func TestEventsSortedAcrossThreads(t *testing.T) {
	rec := NewRecorder(3, 1, 64)
	col := NewCollector(rec, 0)
	// Interleave timestamps across rings; Events() must merge into global
	// time order.
	pushThread(rec, 0, Event{TS: 30, Thread: 0, Kind: EvBegin})
	pushThread(rec, 1, Event{TS: 10, Thread: 1, Kind: EvBegin})
	pushThread(rec, 2, Event{TS: 20, Thread: 2, Kind: EvBegin})
	pushThread(rec, 1, Event{TS: 40, Thread: 1, Kind: EvCommit})
	evs := col.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("Events() out of order: %d after %d", evs[i].TS, evs[i-1].TS)
		}
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
}
