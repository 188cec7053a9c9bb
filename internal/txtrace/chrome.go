package txtrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Chrome trace-event JSON ("JSON Object Format"), the format Perfetto and
// chrome://tracing load. One process, one track per STM thread plus a
// synthetic track for the frame clock; each attempt renders as a
// complete ("X") span named by its outcome, each conflict as an instant
// plus a flow arrow ("s" → "f") from the attacker's span to the enemy's
// track, frame advances as instants. Timestamps are
// microseconds as the format requires; sub-µs precision survives as
// fractional values.

// chromeEvent is one trace-event record. Fields follow the format's
// short names; zero-valued optionals are omitted.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	ID    int            `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// frameTID is the synthetic track for frame advances, which have no
// transaction subject. Real thread tracks are 0..M-1; it sits far above them.
const frameTID = 1000

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// attemptKey identifies one attempt of one logical transaction.
type attemptKey struct {
	thread  int16
	seq     int32
	attempt int32
}

// WriteChromeTrace writes the trace as Chrome trace-event JSON. The output loads directly in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	evs := t.Events
	trace := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	emit := func(e chromeEvent) { trace.TraceEvents = append(trace.TraceEvents, e) }

	// Track metadata. Collect the thread set from the events themselves so
	// every track they reference is labelled, and no other.
	threads := map[int]bool{}
	for _, e := range evs {
		if e.Thread >= 0 {
			threads[int(e.Thread)] = true
		}
	}
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	emit(chromeEvent{Name: "process_name", Phase: "M", PID: 1, Args: map[string]any{"name": "wincm"}})
	for _, tid := range tids {
		emit(chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: tid, Args: map[string]any{"name": fmt.Sprintf("T%02d", tid)}})
	}
	emit(chromeEvent{Name: "thread_name", Phase: "M", PID: 1, TID: frameTID, Args: map[string]any{"name": "frame clock"}})

	// First pass: pair attempt begins with their outcomes.
	type span struct {
		begin, end int64
		outcome    string
		conflicts  int
	}
	spans := map[attemptKey]*span{}
	order := []attemptKey{}
	key := func(e Event) attemptKey {
		return attemptKey{thread: e.Thread, seq: e.Seq, attempt: e.Attempt}
	}
	lastTS := int64(0)
	for _, e := range evs {
		if e.TS > lastTS {
			lastTS = e.TS
		}
		switch e.Kind {
		case EvBegin:
			k := key(e)
			if spans[k] == nil {
				order = append(order, k)
			}
			spans[k] = &span{begin: e.TS, end: -1}
		case EvCommit, EvAbort:
			if s := spans[key(e)]; s != nil {
				s.end, s.outcome = e.TS, e.Kind.String()
			}
		case EvConflict:
			if s := spans[key(e)]; s != nil {
				s.conflicts++
			}
		}
	}

	for _, k := range order {
		s := spans[k]
		end, outcome := s.end, s.outcome
		if end < 0 {
			// Attempt still in flight when the recording was read:
			// close the span at the trace's last timestamp.
			end, outcome = lastTS, "open"
		}
		emit(chromeEvent{
			Name:  fmt.Sprintf("tx %d.%d/%d %s", k.thread, k.seq, k.attempt, outcome),
			Phase: "X", Cat: "tx",
			TS: usec(s.begin), Dur: usec(end - s.begin),
			PID: 1, TID: int(k.thread),
			Args: map[string]any{
				"seq": k.seq, "attempt": k.attempt,
				"outcome": outcome, "conflicts": s.conflicts,
			},
		})
	}

	// Second pass: instants and flow arrows.
	flowID := 0
	for _, e := range evs {
		switch e.Kind {
		case EvConflict:
			dec, _ := e.Decision()
			args := map[string]any{
				"enemy_thread": e.Enemy, "enemy_tx": e.A,
				"var": fmt.Sprintf("0x%x", e.B), "verdict": dec.String(),
			}
			emit(chromeEvent{
				Name: "conflict " + dec.String(), Phase: "i", Cat: "conflict",
				TS: usec(e.TS), PID: 1, TID: int(e.Thread), Scope: "t", Args: args,
			})
			// Flow arrow: attacker → enemy. The start binds to the
			// attacker's enclosing attempt span, the finish (bp:"e") to
			// whatever span encloses the enemy's track at the same time.
			flowID++
			emit(chromeEvent{
				Name: "conflict", Phase: "s", Cat: "conflict",
				TS: usec(e.TS), PID: 1, TID: int(e.Thread), ID: flowID,
			})
			emit(chromeEvent{
				Name: "conflict", Phase: "f", BP: "e", Cat: "conflict",
				TS: usec(e.TS + 1), PID: 1, TID: int(e.Enemy), ID: flowID,
			})
		case EvWait:
			// Stamped at the wait's start with the time waited in A.
			emit(chromeEvent{
				Name: "cm-wait", Phase: "X", Cat: "wait",
				TS: usec(e.TS), Dur: usec(int64(e.A)),
				PID: 1, TID: int(e.Thread),
				Args: map[string]any{"enemy_thread": e.Enemy, "var": fmt.Sprintf("0x%x", e.B)},
			})
		case EvFrame:
			emit(chromeEvent{
				Name: fmt.Sprintf("frame %d", e.A), Phase: "i", Cat: "frame",
				TS: usec(e.TS), PID: 1, TID: frameTID, Scope: "t",
				Args: map[string]any{"frame": e.A},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(trace)
}
