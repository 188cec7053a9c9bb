package txtrace

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"wincm/internal/stm"
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

// TestConflictsDirectedEdges: Conflicts keeps one edge per (attacker,
// enemy) pair, so T3→T5 and T5→T3 are two edges over one Graph edge; its
// edges run most conflicts first, ties by ascending attacker, then enemy
// (the order -fig trace's top-8 pairs print in); and each edge's aborts
// sum to the trace's.
func TestConflictsDirectedEdges(t *testing.T) {
	want := []ConflictEdge{
		{From: 6, To: 7, Count: 4, Aborts: 4},
		{From: 1, To: 2, Count: 3, Aborts: 0},
		{From: 1, To: 4, Count: 3, Aborts: 1},
		{From: 3, To: 5, Count: 3, Aborts: 2},
		{From: 5, To: 3, Count: 3, Aborts: 1},
		{From: 2, To: 1, Count: 2, Aborts: 2},
		{From: 0, To: 6, Count: 1, Aborts: 0},
		{From: 4, To: 1, Count: 1, Aborts: 1},
		{From: 7, To: 0, Count: 1, Aborts: 0},
		{From: 8, To: 0, Count: 1, Aborts: 1},
	}
	// Record the pairs' conflicts lightest pair first, so the order of
	// Edges comes from the sort, not from the events.
	tr := &Trace{Threads: 9, Sample: 1}
	ts := int64(0)
	for i := len(want) - 1; i >= 0; i-- {
		w := want[i]
		for k := 0; k < w.Count; k++ {
			verdict := uint8(stm.Wait) + 1
			if k < w.Aborts {
				verdict = uint8(stm.AbortEnemy) + 1
				if k%2 == 1 {
					verdict = uint8(stm.AbortSelf) + 1
				}
			}
			ts++
			tr.Events = append(tr.Events, Event{
				TS: ts, A: 1, B: 0xab, Thread: int16(w.From), Enemy: int16(w.To),
				Kind: EvConflict, Verdict: verdict,
			})
		}
	}
	cs := tr.Conflicts()
	if !slices.Equal(cs.Edges, want) {
		t.Errorf("edges =\n%+v\nwant\n%+v", cs.Edges, want)
	}
	var sum int
	for _, e := range cs.Edges {
		sum += e.Aborts
	}
	if sum != cs.Aborts || cs.Aborts != 12 || cs.Conflicts != 22 {
		t.Errorf("Σ edge aborts = %d, totals = %d conflicts, %d aborts; want 12 = 12 of 22", sum, cs.Conflicts, cs.Aborts)
	}
	// Undirected: {6,7} {1,2} {1,4} {3,5} {0,6} {0,7} {0,8}.
	if n := cs.Graph.Edges(); n != 7 || !cs.Graph.HasEdge(3, 5) || !cs.Graph.HasEdge(5, 3) {
		t.Errorf("graph has %d edges (3–5: %v), want 7 with 3–5", n, cs.Graph.HasEdge(3, 5))
	}
	if cs.Threads != 9 || cs.MaxDegree != 3 {
		t.Errorf("threads %d, max degree %d; want 9 and 3 (T0 meets T6, T7, T8)", cs.Threads, cs.MaxDegree)
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
