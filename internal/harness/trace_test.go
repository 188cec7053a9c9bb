package harness_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wincm/internal/bench"
	"wincm/internal/harness"
	"wincm/internal/telemetry"
	"wincm/internal/txtrace"
)

// TestRunWithTraceRecorder: Config.Trace arms the flight recorder for a
// run and Result.Trace carries its collector, fully drained.
func TestRunWithTraceRecorder(t *testing.T) {
	w, err := harness.NewWorkload("list", bench.Mix{UpdatePct: 100, KeyRange: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub()
	cfg := harness.Config{
		Manager: "online-dynamic", Threads: 4, Seed: 1,
		Trace: &harness.TraceConfig{Sample: 1, Hub: hub},
	}
	res, err := harness.RunTimed(cfg, w, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Result.Trace nil despite Config.Trace")
	}
	counts := res.Trace.Counts()
	if counts[txtrace.EvBegin] == 0 || counts[txtrace.EvCommit] == 0 {
		t.Errorf("trace counts = %v, want begins and commits", counts)
	}
	// The recorder saw the run the runtime executed: every committed
	// transaction that was sampled produced a commit event; at 1-in-1
	// sampling the commit-entry events can't undercount commits by more
	// than the ring drops.
	if uint64(counts[txtrace.EvCommit])+res.Trace.Dropped() < uint64(res.Commits) {
		t.Errorf("commit events %d + dropped %d < run commits %d",
			counts[txtrace.EvCommit], res.Trace.Dropped(), res.Commits)
	}
	// A window manager's frame clock feeds the trace.
	if counts[txtrace.EvFrame] == 0 {
		t.Error("no frame events from a window-based manager")
	}
	// The hub got the collector installed for /trace endpoints.
	if hub.TraceSource() == nil {
		t.Error("hub has no trace source installed")
	}
	// The snapshot serializes.
	var buf bytes.Buffer
	if err := res.Trace.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("snapshot JSON invalid")
	}
	buf.Reset()
	if err := res.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	checkChromeTrace(t, buf.Bytes())
}

// checkChromeTrace holds a Chrome trace dump to what Perfetto needs to load
// and draw it: valid JSON in the trace-event object format, a non-empty
// event list, a phase and no negative time on every event, at least one
// attempt span ("X", category tx) to draw and at least one metadata record
// ("M") to label the tracks.
func checkChromeTrace(t *testing.T, raw []byte) {
	t.Helper()
	if !json.Valid(raw) {
		t.Fatal("chrome trace is not valid JSON")
	}
	var trace struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			Cat   string  `json:"cat"`
			TS    float64 `json:"ts"`
			Dur   float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("not trace-event format: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("chrome trace holds no events")
	}
	var spans, meta int
	for i, e := range trace.TraceEvents {
		if e.Phase == "" {
			t.Errorf("event %d (%q) has no phase", i, e.Name)
		}
		if e.TS < 0 || e.Dur < 0 {
			t.Errorf("event %d (%q) has negative time: ts=%v dur=%v", i, e.Name, e.TS, e.Dur)
		}
		switch {
		case e.Phase == "X" && e.Cat == "tx":
			spans++
		case e.Phase == "M":
			meta++
		}
	}
	if spans == 0 {
		t.Error("no attempt spans (\"X\", cat tx): nothing for Perfetto to draw")
	}
	if meta == 0 {
		t.Error("no metadata records (\"M\"): tracks would be unlabeled")
	}
}

// TestTraceOffLeavesResultNil: without Config.Trace nothing is recorded
// and Result.Trace stays nil (the off state costs nothing and leaks
// nothing).
func TestTraceOffLeavesResultNil(t *testing.T) {
	w, err := harness.NewWorkload("list", bench.Mix{UpdatePct: 100, KeyRange: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Config{Manager: "polka", Threads: 2, Seed: 1}
	res, err := harness.RunTimed(cfg, w, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("Result.Trace set without Config.Trace")
	}
}

// TestFiguresOptionsCarryTrace: Options.Trace flows into each cell's
// Config (with the sweep Hub as the default trace hub).
func TestFiguresOptionsCarryTrace(t *testing.T) {
	o := harness.Options{
		Threads: []int{2}, Duration: 20 * time.Millisecond, Reps: 1,
		Seed:  3,
		Trace: &harness.TraceConfig{Sample: 8},
	}
	cfg := o.Config("polka", 2, 3)
	if cfg.Trace == nil {
		t.Fatal("cell Config lost Options.Trace")
	}
	if cfg.Trace.Sample != 8 {
		t.Errorf("cell trace sample = %d, want 8", cfg.Trace.Sample)
	}
}

// TestTraceFigRunsTheWatchedCell: -fig trace picks its cell the way
// TelemetryFig does — the first benchmark under Manager (defaulted) at the
// largest M — and arms the recorder even when Options.Trace is nil.
func TestTraceFigRunsTheWatchedCell(t *testing.T) {
	res, label, err := harness.TraceFig(harness.Options{
		Benchmarks: []string{"list", "rbtree"}, Threads: []int{1, 2}, Duration: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "list under adaptive-improved-dynamic, M=2"; label != want {
		t.Errorf("label = %q, want %q", label, want)
	}
	if res.Trace == nil || res.Trace.Counts()[txtrace.EvCommit] == 0 {
		t.Error("TraceFig recorded no commits")
	}
	if _, _, err := harness.TraceFig(harness.Options{Manager: "nosuch"}); err == nil {
		t.Error("TraceFig accepted an unknown manager")
	}
}
