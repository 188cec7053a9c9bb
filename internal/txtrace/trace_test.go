package txtrace

import (
	"bytes"
	"testing"
	"time"
)

// pushThread appends an event directly to a thread's buffer — the
// in-package shortcut for deterministic view tests.
func pushThread(rec *Recorder, thread int, e Event) { pushBuffer(&rec.threads[thread].buf, e) }

// pushBuffer appends e to b, growing it past any budget.
func pushBuffer(b *buffer, e Event) {
	if !b.room() {
		b.grow()
	}
	b.push(e)
}

func TestEventsSortedAcrossThreads(t *testing.T) {
	rec := NewRecorder(3, 1)
	// Interleave timestamps across buffers; Read must merge them into
	// global time order.
	pushThread(rec, 0, Event{TS: 30, Thread: 0, Kind: EvBegin})
	pushThread(rec, 1, Event{TS: 10, Thread: 1, Kind: EvBegin})
	pushThread(rec, 2, Event{TS: 20, Thread: 2, Kind: EvBegin})
	pushThread(rec, 1, Event{TS: 40, Thread: 1, Kind: EvCommit})
	evs := rec.Read().Events
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Fatalf("Read().Events out of order: %d after %d", evs[i].TS, evs[i-1].TS)
		}
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
}

// TestConflictsAndHeatmapSummarizeWindow: the views -fig trace prints
// agree with the golden trace — its event tallies, its one aborting T0–T1
// conflict and 0xab as the hottest variable with the 200 ns wait on it.
func TestConflictsAndHeatmapSummarizeWindow(t *testing.T) {
	tr := goldenTrace()

	if tr.Sample != 1 || tr.Threads != 2 {
		t.Errorf("Sample, Threads = %d, %d, want 1, 2", tr.Sample, tr.Threads)
	}
	if n := tr.Counts(); n[EvBegin] != 5 || n[EvConflict] != 1 || n[EvFrame] != 1 {
		t.Errorf("event tallies = %v", n)
	}
	cs := tr.Conflicts()
	if cs.Conflicts != 1 || cs.Aborts != 1 {
		t.Errorf("conflict totals = %d conflicts, %d aborts, want 1, 1", cs.Conflicts, cs.Aborts)
	}
	if len(cs.Edges) != 1 || cs.Edges[0] != (ConflictEdge{From: 0, To: 1, Count: 1, Aborts: 1}) {
		t.Errorf("edges = %+v, want the single T0–T1 edge", cs.Edges)
	}
	var sum int
	for _, e := range cs.Edges {
		sum += e.Aborts
	}
	if sum != cs.Aborts {
		t.Errorf("Σ edge aborts = %d != trace aborts %d", sum, cs.Aborts)
	}
	hot := tr.Heatmap(16)
	if len(hot) == 0 || hot[0].Var != 0xab || hot[0].Aborts != 1 {
		t.Fatalf("heatmap = %+v, want 0xab hottest with 1 abort", hot)
	}
	if hot[0].Waits != 200*time.Nanosecond {
		t.Errorf("heatmap wait = %v, want 200ns", hot[0].Waits)
	}
}

// TestCountsTakeEachAttemptsLastOutcome: an attempt that records EvCommit
// and then EvAbort (its status CAS lost to a remote abort) counts as one
// abort and no commit, also when another thread's outcome falls between
// its two events; every other attempt's outcome counts as recorded.
func TestCountsTakeEachAttemptsLastOutcome(t *testing.T) {
	tr := &Trace{Threads: 2, Sample: 1, Events: []Event{
		{TS: 10, Seq: 0, Attempt: 1, Thread: 0, Enemy: -1, Kind: EvBegin},
		{TS: 11, Seq: 0, Attempt: 1, Thread: 1, Enemy: -1, Kind: EvBegin},
		{TS: 20, Seq: 0, Attempt: 1, Thread: 0, Enemy: -1, Kind: EvCommit},
		{TS: 21, Seq: 0, Attempt: 1, Thread: 1, Enemy: -1, Kind: EvCommit},
		{TS: 22, Seq: 0, Attempt: 1, Thread: 0, Enemy: -1, Kind: EvAbort},
		{TS: 30, Seq: 0, Attempt: 2, Thread: 0, Enemy: -1, Kind: EvBegin},
		{TS: 40, Seq: 0, Attempt: 2, Thread: 0, Enemy: -1, Kind: EvCommit},
		{TS: 50, Seq: 1, Attempt: 1, Thread: 1, Enemy: -1, Kind: EvBegin},
		{TS: 60, Seq: 1, Attempt: 1, Thread: 1, Enemy: -1, Kind: EvAbort},
	}}
	n := tr.Counts()
	if n[EvBegin] != 4 || n[EvCommit] != 2 || n[EvAbort] != 2 {
		t.Errorf("counts = %v, want 4 begins, 2 commits and 2 aborts", n)
	}
}

func TestTimelineSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().Timeline(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("T00 |")) || !bytes.Contains(buf.Bytes(), []byte("T01 |")) {
		t.Errorf("timeline missing thread rows:\n%s", buf.String())
	}
}
