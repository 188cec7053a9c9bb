package txtrace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenTrace builds a fully deterministic trace: two threads, a
// conflict with a flow arrow, a wait span, aborted and committed attempts,
// an attempt still in flight when the recording is read, and a frame
// advance.
func goldenTrace() *Trace {
	rec := NewRecorder(2, 1)
	const v = uint64(0xAB)

	// T0, tx 0: begin → open → conflict (abort-enemy) → wait → commit.
	pushThread(rec, 0, Event{TS: 1000, A: 1, Seq: 0, Attempt: 1, Thread: 0, Enemy: -1, Kind: EvBegin})
	pushThread(rec, 0, Event{TS: 1200, A: v, Seq: 0, Attempt: 1, Thread: 0, Enemy: -1, Kind: EvOpen})
	pushThread(rec, 0, Event{TS: 1500, A: 5, B: v, Seq: 0, Attempt: 1, Thread: 0, Enemy: 1, Kind: EvConflict, Verdict: 1})
	pushThread(rec, 0, Event{TS: 1550, A: 200, B: v, Seq: 0, Attempt: 1, Thread: 0, Enemy: 1, Kind: EvWait, Verdict: 3})
	pushThread(rec, 0, Event{TS: 2000, A: 1, Seq: 0, Attempt: 1, Thread: 0, Enemy: -1, Kind: EvCommit})

	// T1, tx 0: attempt 1 aborts, attempt 2 commits.
	pushThread(rec, 1, Event{TS: 1100, A: 5, Seq: 0, Attempt: 1, Thread: 1, Enemy: -1, Kind: EvBegin})
	pushThread(rec, 1, Event{TS: 1600, A: 5, Seq: 0, Attempt: 1, Thread: 1, Enemy: -1, Kind: EvAbort})
	pushThread(rec, 1, Event{TS: 1700, A: 5, Seq: 0, Attempt: 2, Thread: 1, Enemy: -1, Kind: EvBegin})
	pushThread(rec, 1, Event{TS: 2500, A: 5, Seq: 0, Attempt: 2, Thread: 1, Enemy: -1, Kind: EvCommit})

	// T0, tx 1: aborted at its commit point (commit-time validation
	// failed); the runtime reports the abort only.
	pushThread(rec, 0, Event{TS: 3000, A: 2, Seq: 1, Attempt: 1, Thread: 0, Enemy: -1, Kind: EvBegin})
	pushThread(rec, 0, Event{TS: 3500, A: 2, Seq: 1, Attempt: 1, Thread: 0, Enemy: -1, Kind: EvAbort})

	// T1, tx 1: still in flight when the recording is read.
	pushThread(rec, 1, Event{TS: 4000, A: 6, Seq: 1, Attempt: 1, Thread: 1, Enemy: -1, Kind: EvBegin})

	// Frame track.
	pushBuffer(&rec.aux, Event{TS: 1300, A: 2, Seq: -1, Attempt: -1, Thread: -1, Enemy: -1, Kind: EvFrame})
	return rec.Read()
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/txtrace -run Golden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome trace diverged from golden file %s; if intentional, regenerate with -update\ngot:\n%s", golden, buf.String())
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("WriteChromeTrace emitted invalid JSON")
	}
	var trace chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}

	byPhase := map[string]int{}
	outcomes := map[string]int{}
	for _, e := range trace.TraceEvents {
		byPhase[e.Phase]++
		if e.Phase == "" {
			t.Errorf("event %q without a phase", e.Name)
		}
		if e.Dur < 0 {
			t.Errorf("event %q with negative duration %v", e.Name, e.Dur)
		}
		if e.Cat == "tx" && e.Phase == "X" {
			outcomes[e.Args["outcome"].(string)]++
		}
	}
	// 4 metadata records: process, T00, T01, frame clock.
	if byPhase["M"] != 4 {
		t.Errorf("metadata events = %d, want 4", byPhase["M"])
	}
	// 5 attempts: T0 has 2, T1 has 3 (two attempts of tx 0 + the open one).
	if got := outcomes["commit"] + outcomes["abort"] + outcomes["open"]; got != 5 {
		t.Errorf("attempt spans = %d (%v), want 5", got, outcomes)
	}
	// 2 commits (T0.tx0, T1.tx0/2), 2 aborts (T1.tx0/1, T0.tx1), 1 open
	// (T1.tx1).
	if outcomes["commit"] != 2 || outcomes["abort"] != 2 || outcomes["open"] != 1 {
		t.Errorf("outcomes = %v, want commit:2 abort:2 open:1", outcomes)
	}
	// One conflict → one flow start ("s") and one finish ("f") with
	// matching IDs.
	if byPhase["s"] != 1 || byPhase["f"] != 1 {
		t.Errorf("flow events s=%d f=%d, want 1 each", byPhase["s"], byPhase["f"])
	}
	var sID, fID int
	for _, e := range trace.TraceEvents {
		switch e.Phase {
		case "s":
			sID = e.ID
		case "f":
			fID = e.ID
			if e.BP != "e" {
				t.Errorf("flow finish bp = %q, want \"e\" (bind to enclosing span)", e.BP)
			}
		}
	}
	if sID != fID || sID == 0 {
		t.Errorf("flow arrow ids diverge: s=%d f=%d", sID, fID)
	}
	// Instants: conflict + frame, both thread-scoped.
	if byPhase["i"] != 2 {
		t.Errorf("instant events = %d, want 2", byPhase["i"])
	}
	// One span beyond the attempts: cm-wait.
	if byPhase["X"] != 5+1 {
		t.Errorf("X spans = %d, want 5 attempts + wait", byPhase["X"])
	}
	for _, e := range trace.TraceEvents {
		if e.Name == "cm-wait" {
			if e.TS != usec(1550) || e.Dur != usec(200) {
				t.Errorf("wait span at %v dur %v, want start-anchored at wait entry", e.TS, e.Dur)
			}
		}
		if strings.HasPrefix(e.Name, "conflict ") && e.Phase == "i" {
			if e.Args["verdict"] != "abort-enemy" {
				t.Errorf("conflict verdict = %v", e.Args["verdict"])
			}
			if e.Args["var"] != "0xab" {
				t.Errorf("conflict var = %v, want 0xab", e.Args["var"])
			}
		}
	}
}
