package txtrace

import (
	"cmp"
	"slices"
	"sync"
	"time"
	"unsafe"

	"wincm/internal/stm"
)

// Budget caps the memory one Recorder records into: 64 MiB of events,
// handed out a chunk at a time to whichever buffer fills its last chunk.
const Budget = 64 << 20

// chunkEvents is how many events one buffer chunk holds (160 KiB). A
// buffer grows a chunk at a time, so growing never copies recorded events.
const chunkEvents = 1 << 12

// buffer is an append-only event log grown in chunks.
type buffer struct {
	chunks [][]Event
	n      int
}

// room reports whether b holds one more event without a new chunk.
func (b *buffer) room() bool { return b.n < len(b.chunks)*chunkEvents }

// grow adds one chunk to b.
func (b *buffer) grow() { b.chunks = append(b.chunks, make([]Event, chunkEvents)) }

// push appends e; b must have room.
func (b *buffer) push(e Event) {
	b.chunks[b.n/chunkEvents][b.n%chunkEvents] = e
	b.n++
}

// appendTo appends the buffer's events to dst in record order.
func (b *buffer) appendTo(dst []Event) []Event {
	for c, left := 0, b.n; left > 0; c++ {
		k := min(left, chunkEvents)
		dst = append(dst, b.chunks[c][:k]...)
		left -= k
	}
	return dst
}

// threadState is one thread's recording state; only its own thread
// touches it until the run is over. Padding keeps neighbouring threads'
// states off each other's cache lines.
type threadState struct {
	buf buffer
	// mark is where the sampled transaction in flight began in buf.
	mark int
	// txSeen counts logical transactions started on this thread (the
	// sampling counter).
	txSeen uint64
	// unrecorded counts sampled transactions left out because the budget
	// was spent.
	unrecorded uint64
	// start is the clock OnBegin read for the sampled attempt in flight.
	start int64
	// sampling is the sticky per-logical-transaction sampling verdict:
	// drawn once at the first attempt, honoured by every later attempt and
	// open of the same transaction.
	sampling bool
	_        [63]byte
}

// threadState fills two cache lines exactly.
var (
	_ [128 - unsafe.Sizeof(threadState{})]byte
	_ [unsafe.Sizeof(threadState{}) - 128]byte
)

// Recorder is the flight recorder. It implements stm.Probe (attempt
// lifecycle, opens, conflicts) and provides FrameAdvanced for
// core.(*Manager).AddFrameHook. One Recorder serves one stm.Runtime, and
// Read hands its recording over once the run is over.
//
// Each thread records into a buffer only it writes, and takes the mutex
// only to claim a new chunk, once per chunkEvents events. Frame events
// arrive on whichever thread advanced the frame, at frame cadence, so
// they share one buffer under the mutex — off the transactional hot path
// by construction.
type Recorder struct {
	sample  uint64
	threads []threadState

	mu               sync.Mutex // guards free, aux and framesUnrecorded
	free             int        // chunks of the budget not yet handed out
	aux              buffer
	framesUnrecorded uint64
}

var _ stm.Probe = (*Recorder)(nil)

// NewRecorder returns a recorder for up to threads threads, sampling one
// logical transaction in sample (sample <= 1 records every transaction).
func NewRecorder(threads, sample int) *Recorder {
	return newRecorder(threads, sample, Budget)
}

// newRecorder is NewRecorder under a budget of budget bytes.
func newRecorder(threads, sample, budget int) *Recorder {
	return &Recorder{
		sample:  uint64(max(sample, 1)),
		threads: make([]threadState, max(threads, 1)),
		free:    budget / (chunkEvents * int(unsafe.Sizeof(Event{}))),
	}
}

// take claims one chunk of the budget, reporting false when none is
// left. r.mu must be held.
func (r *Recorder) take() bool {
	if r.free == 0 {
		return false
	}
	r.free--
	return true
}

// record appends e to s's buffer. When the buffer is full and the budget
// spent, it cuts the transaction in flight back to where it began, stops
// sampling it and counts it unrecorded: what a buffer keeps is whole
// transactions only.
func (r *Recorder) record(s *threadState, e Event) {
	if !s.buf.room() {
		r.mu.Lock()
		ok := r.take()
		r.mu.Unlock()
		if !ok {
			s.buf.n = s.mark
			s.sampling = false
			s.unrecorded++
			return
		}
		s.buf.grow()
	}
	s.buf.push(e)
}

// state returns the calling transaction's thread slot. Thread IDs are
// dense [0, M) by construction (stm.New numbers them), so this is a bare
// index.
func (r *Recorder) state(tx *stm.Tx) *threadState { return &r.threads[tx.D.ThreadID] }

// OnBegin implements stm.Probe: draws the sampling verdict on the first
// attempt and records the attempt start, read off the clock here for
// sampled attempts only, so a runtime of either timing mode can be traced.
func (r *Recorder) OnBegin(tx *stm.Tx) {
	s := r.state(tx)
	if tx.D.Attempts == 1 {
		s.txSeen++
		s.sampling = r.sample <= 1 || s.txSeen%r.sample == 1
		s.mark = s.buf.n
	}
	if !s.sampling {
		return
	}
	s.start = stm.Now()
	r.record(s, Event{
		TS: s.start, A: tx.D.ID.Load(),
		Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
		Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvBegin,
	})
}

// OnOpen implements stm.Probe. Opens are by far the densest event class
// (a list traversal opens every node it passes), so they reuse the
// attempt's start stamp instead of reading the clock: the analyses
// consume opens as per-variable counts, and within a thread the stable
// sort keeps their causal position inside the attempt. Reading
// nanotime ~130 times per sampled list transaction would double its
// length — and a lengthened transaction distorts the very contention the
// trace is meant to show.
func (r *Recorder) OnOpen(tx *stm.Tx) {
	if s := r.state(tx); s.sampling {
		r.record(s, Event{
			TS: s.start, A: tx.OpenedVar(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvOpen,
		})
	}
}

// OnAcquire implements stm.Probe. Same timestamp economy as OnOpen.
func (r *Recorder) OnAcquire(tx *stm.Tx) {
	if s := r.state(tx); s.sampling {
		r.record(s, Event{
			TS: s.start, A: tx.OpenedVar(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvAcquire,
		})
	}
}

// OnCommit implements stm.Probe.
func (r *Recorder) OnCommit(tx *stm.Tx) {
	if s := r.state(tx); s.sampling {
		r.record(s, Event{
			TS: stm.Now(), A: tx.D.ID.Load(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvCommit,
		})
	}
}

// OnAbort implements stm.Probe.
func (r *Recorder) OnAbort(tx *stm.Tx) {
	if s := r.state(tx); s.sampling {
		r.record(s, Event{
			TS: stm.Now(), A: tx.D.ID.Load(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvAbort,
		})
	}
}

// OnResolve implements stm.Probe: it records the decision the runtime
// carries out, stamped at the decision. A Wait starts there and arrives
// once it is over, with the time waited, so its event spans the real wait
// however late the report runs.
func (r *Recorder) OnResolve(tx, enemy *stm.Tx, enemyID uint64, at int64, kind stm.Kind, dec stm.Decision, wait time.Duration) {
	if s := r.state(tx); s.sampling {
		r.record(s, Event{
			TS: at, A: enemyID, B: tx.OpenedVar(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: int16(enemy.D.ThreadID),
			Kind: EvConflict, Verdict: uint8(dec) + 1,
		})
		// Re-checked: a full buffer may have just cut the transaction.
		if dec == stm.Wait && wait > 0 && s.sampling {
			r.record(s, Event{
				TS: at, A: uint64(wait), B: tx.OpenedVar(),
				Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
				Thread: int16(tx.D.ThreadID), Enemy: int16(enemy.D.ThreadID),
				Kind: EvWait, Verdict: uint8(dec) + 1,
			})
		}
	}
}

// FrameAdvanced records a window-manager frame advance on the frame
// buffer, or counts it once the budget is spent; install it with
// core.(*Manager).AddFrameHook.
func (r *Recorder) FrameAdvanced(frame int64) {
	e := Event{
		TS: stm.Now(), A: uint64(frame),
		Seq: -1, Attempt: -1, Thread: -1, Enemy: -1, Kind: EvFrame,
	}
	r.mu.Lock()
	if !r.aux.room() && r.take() {
		r.aux.grow()
	}
	if r.aux.room() {
		r.aux.push(e)
	} else {
		r.framesUnrecorded++
	}
	r.mu.Unlock()
}

// Read merges every buffer into one Trace, sorted by time once. Call it
// after the threads that record have stopped — after joining them, so the
// join orders their plain writes before these reads.
func (r *Recorder) Read() *Trace {
	t := &Trace{Threads: len(r.threads), Sample: int(r.sample)}
	r.mu.Lock()
	n := r.aux.n
	for i := range r.threads {
		n += r.threads[i].buf.n
	}
	t.Events = r.aux.appendTo(make([]Event, 0, n))
	t.FramesUnrecorded = r.framesUnrecorded
	r.mu.Unlock()
	for i := range r.threads {
		t.Events = r.threads[i].buf.appendTo(t.Events)
		t.Unrecorded += r.threads[i].unrecorded
	}
	// Stable, so same-timestamp events keep their buffer's record order,
	// which within a thread is causal order.
	slices.SortStableFunc(t.Events, func(a, b Event) int { return cmp.Compare(a.TS, b.TS) })
	return t
}
