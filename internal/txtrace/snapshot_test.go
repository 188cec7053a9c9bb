package txtrace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSnapshotSummarizesWindow(t *testing.T) {
	col := goldenCollector()
	snap := col.Snapshot()

	if snap.Sample != 1 {
		t.Errorf("Sample = %d, want 1", snap.Sample)
	}
	if snap.Events["begin"] != 5 || snap.Events["conflict"] != 1 || snap.Events["frame"] != 1 {
		t.Errorf("event tallies = %v", snap.Events)
	}
	if snap.Verdicts["abort-enemy"] != 1 {
		t.Errorf("verdict tallies = %v, want one abort-enemy conflict", snap.Verdicts)
	}
	if snap.Conflicts.Conflicts != 1 || snap.Conflicts.Aborts != 1 {
		t.Errorf("conflict summary = %+v", snap.Conflicts)
	}
	if len(snap.Conflicts.Edges) != 1 || snap.Conflicts.Edges[0] != (ConflictEdge{From: 0, To: 1, Count: 1, Aborts: 1}) {
		t.Errorf("edges = %+v, want the single T0–T1 edge", snap.Conflicts.Edges)
	}
	var sum int
	for _, e := range snap.Conflicts.Edges {
		sum += e.Aborts
	}
	if sum != snap.Conflicts.Aborts {
		t.Errorf("Σ edge aborts = %d != snapshot aborts %d", sum, snap.Conflicts.Aborts)
	}
	if len(snap.Heatmap) == 0 || snap.Heatmap[0].Var != "0xab" || snap.Heatmap[0].Aborts != 1 {
		t.Errorf("heatmap = %+v, want 0xab hottest with 1 abort", snap.Heatmap)
	}
	if snap.Heatmap[0].WaitNs != 200 {
		t.Errorf("heatmap wait = %d ns, want 200", snap.Heatmap[0].WaitNs)
	}
}

func TestWriteSnapshotJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenCollector().WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteSnapshot emitted invalid JSON")
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if snap.Events["begin"] != 5 {
		t.Errorf("round-tripped begins = %d, want 5", snap.Events["begin"])
	}
}

func TestTimelineSmoke(t *testing.T) {
	col := goldenCollector()
	var buf bytes.Buffer
	if err := col.Timeline(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("T00 |")) || !bytes.Contains(buf.Bytes(), []byte("T01 |")) {
		t.Errorf("timeline missing thread rows:\n%s", buf.String())
	}
}
