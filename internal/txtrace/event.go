// Package txtrace is the transaction flight recorder: an always-compiled,
// off-by-default tracer that captures per-attempt schedules — who aborted
// whom, over which variable, under which contention-manager verdict — with
// a hot path cheap enough to leave compiled into every binary.
//
// The design splits hot and cold:
//
//   - Hot side (recorder.go, ring.go): each thread owns a cache-line-padded
//     single-producer/single-consumer ring of fixed-size binary Events.
//     Recording is a bounds check, a plain 40-byte store and one atomic
//     cursor bump — no locks, no allocation, no fences beyond the publish
//     store. 1-in-N transaction sampling bounds the event rate; an
//     unsampled transaction pays one counter increment per attempt and
//     nothing per open.
//
//   - Cold side (collect.go, chrome.go, export.go): a Collector drains the
//     rings into a bounded in-memory window and derives views — a
//     thread-level conflict graph (reusing internal/conflictgraph), a
//     hot-variable contention heatmap with per-variable abort attribution,
//     Chrome trace-event JSON for Perfetto, and an ASCII timeline.
//
// The recorder is the only stm.Probe a run installs, and it plugs into the
// window manager's frame clock via core.(*Manager).AddFrameHook, so one
// trace interleaves attempt lifecycles and frame advances on a single
// monotonic clock (stm.Now). Counts that need no individual events — the
// runtime's commits, aborts and conflict verdicts — the runtime keeps
// itself, traced or not.
package txtrace

import "wincm/internal/stm"

// Kind labels one recorded event.
type Kind uint8

const (
	// EvBegin marks an attempt start. A = logical transaction ID.
	EvBegin Kind = 1 + iota
	// EvCommit marks commit entry (validation and the status CAS follow;
	// if either fails an EvAbort for the same attempt follows it, and the
	// abort is the attempt's outcome). A = logical transaction ID.
	EvCommit
	// EvAbort marks an aborted attempt. A = logical transaction ID.
	EvAbort
	// EvOpen marks a transactional open. A = variable token. Open events
	// carry the attempt's start timestamp, not their own (the recorder
	// skips the clock read on this hot, dense path); within a thread their
	// drain order still reflects open order.
	EvOpen
	// EvAcquire marks a newly acquired write ownership. A = variable
	// token. Timestamped like EvOpen.
	EvAcquire
	// EvConflict marks one resolved conflict. A = enemy logical transaction
	// ID, B = variable token, Enemy = enemy thread, Verdict = decision+1.
	EvConflict
	// EvWait marks time spent inside a Wait verdict. A = wait ns,
	// B = variable token, Enemy = enemy thread.
	EvWait
	// EvFrame marks a window-manager frame advance. A = new frame number.
	EvFrame
)

// String returns the event kind's name.
func (k Kind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvCommit:
		return "commit"
	case EvAbort:
		return "abort"
	case EvOpen:
		return "open"
	case EvAcquire:
		return "acquire"
	case EvConflict:
		return "conflict"
	case EvWait:
		return "wait"
	case EvFrame:
		return "frame"
	default:
		return "invalid"
	}
}

// Event is one fixed-size binary trace record: 40 bytes, no pointers, so a
// ring of them is a single flat allocation the garbage collector never
// scans. A and B carry kind-specific payload (see the Kind constants);
// Verdict holds stm.Decision+1 for conflict events so the zero value means
// "no verdict".
type Event struct {
	// TS is the event time in nanoseconds on the stm.Now clock.
	TS int64
	// A and B are kind-specific payload words.
	A, B uint64
	// Seq is the logical transaction's 0-based index in its thread's
	// stream; Attempt is the attempt number within it (from 1). Both are
	// -1 for events without a transaction subject (frame events).
	Seq, Attempt int32
	// Thread is the subject thread (-1 for frame events); Enemy is
	// the conflicting thread for conflict/wait events, else -1.
	Thread, Enemy int16
	// Kind is what happened; Verdict is stm.Decision+1 for conflicts.
	Kind    Kind
	Verdict uint8
	_       [2]byte
}

// Decision returns the contention-manager verdict of a conflict event and
// whether one was recorded.
func (e Event) Decision() (stm.Decision, bool) {
	if e.Verdict == 0 {
		return 0, false
	}
	return stm.Decision(e.Verdict - 1), true
}

// Aborting reports whether the event is a conflict whose verdict aborted
// one of the two parties (anything but Wait).
func (e Event) Aborting() bool {
	d, ok := e.Decision()
	return ok && e.Kind == EvConflict && d != stm.Wait
}
