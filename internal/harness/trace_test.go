package harness_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wincm/internal/bench"
	"wincm/internal/harness"
	"wincm/internal/txtrace"
)

// TestRunWithTraceRecorder: Config.TraceSample arms the flight recorder
// for a run and Result.Trace carries the whole recording; its Chrome trace
// export is one Perfetto loads.
func TestRunWithTraceRecorder(t *testing.T) {
	w, err := harness.NewWorkload("list", bench.Mix{UpdatePct: 100, KeyRange: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.Config{Manager: "online-dynamic", Threads: 4, Seed: 1, TraceSample: 1}
	res, err := harness.RunTimed(cfg, w, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("Result.Trace nil despite Config.TraceSample")
	}
	counts := res.Trace.Counts()
	if counts[txtrace.EvBegin] == 0 || counts[txtrace.EvCommit] == 0 {
		t.Errorf("trace counts = %v, want begins and commits", counts)
	}
	// The recorder saw the run the runtime executed: at 1-in-1 sampling,
	// within the budget, every committed transaction is one recorded
	// commit (the runtime reports one outcome per attempt).
	if res.Trace.Unrecorded != 0 {
		t.Errorf("%d transactions unrecorded, want 0", res.Trace.Unrecorded)
	}
	if counts[txtrace.EvCommit] != int(res.Commits) {
		t.Errorf("recorded commits %d != run commits %d", counts[txtrace.EvCommit], res.Commits)
	}
	// A window manager's frame clock feeds the trace.
	if counts[txtrace.EvFrame] == 0 {
		t.Error("no frame events from a window-based manager")
	}
	var buf bytes.Buffer
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

// TestTraceRecordsEverySampledCommit: on -fig trace's M = 4 list cell at
// 1-in-2 sampling for 50 ms, the recording holds every sampled
// transaction of the timed run and nothing else. Thread i samples
// ⌈c_i/2⌉ of its c_i commits, so the run sampled between C/2 and
// C/2 + M/2 of its C commits; the recorded committed transactions must
// reach 99% of the lower end and stay within C/2 + M, which the workload's
// Setup inserts, were they recorded, would exceed.
func TestTraceRecordsEverySampledCommit(t *testing.T) {
	const threads = 4
	res, _, err := harness.TraceFig(harness.Options{
		Benchmarks: []string{"list"}, Threads: []int{threads}, Duration: 50 * time.Millisecond,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Trace.Unrecorded; n != 0 {
		t.Errorf("%d transactions unrecorded past the budget, want 0", n)
	}
	if got, sampled := res.Trace.Counts()[txtrace.EvCommit], float64(res.Commits)/2; float64(got) < 0.99*sampled {
		t.Errorf("recorded %d committed transactions of ≥ %.0f sampled commits (%d run commits)", got, sampled, res.Commits)
	} else if limit := sampled + threads; float64(got) > limit {
		t.Errorf("recorded %d committed transactions, more than the %.0f the timed run can have sampled (%d run commits)", got, limit, res.Commits)
	}
}

// TestTraceOffLeavesResultNil: with TraceSample 0 nothing is recorded
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
		t.Error("Result.Trace set with TraceSample 0")
	}
}

// TestTraceFigRunsTheWatchedCell: -fig trace picks its cell the way
// TelemetryFig does — the first benchmark under Manager (defaulted) at the
// largest M — at the sampling it is given, and rejects a sample below 1.
func TestTraceFigRunsTheWatchedCell(t *testing.T) {
	res, label, err := harness.TraceFig(harness.Options{
		Benchmarks: []string{"list", "rbtree"}, Threads: []int{1, 2}, Duration: 30 * time.Millisecond,
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := "list under adaptive-improved-dynamic, M=2"; label != want {
		t.Errorf("label = %q, want %q", label, want)
	}
	if res.Trace == nil || res.Trace.Counts()[txtrace.EvCommit] == 0 {
		t.Fatal("TraceFig recorded no commits")
	}
	if s := res.Trace.Sample; s != 2 {
		t.Errorf("recorder samples 1 in %d, want 1 in 2", s)
	}
	if n := res.Trace.Unrecorded; n != 0 {
		t.Errorf("%d transactions unrecorded past the budget, want 0", n)
	}
	if _, _, err := harness.TraceFig(harness.Options{Manager: "nosuch"}, 1); err == nil {
		t.Error("TraceFig accepted an unknown manager")
	}
	if _, _, err := harness.TraceFig(harness.Options{}, 0); err == nil {
		t.Error("TraceFig accepted sample 0")
	}
}
