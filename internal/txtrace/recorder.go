package txtrace

import (
	"sync"
	"time"

	"wincm/internal/stm"
)

// DefaultRingCap is the per-thread ring capacity the harness installs:
// 16384 events × 40 bytes ≈ 640 KiB per active thread, enough for hundreds
// of milliseconds of sampled events between collector polls.
const DefaultRingCap = 1 << 14

// auxCap bounds the frame event ring. Frame advances happen at frame
// cadence (thousands per second at most), so a small ring outlasts any
// polling interval.
const auxCap = 1 << 12

// threadState is one thread's hot recording state. The ring is shared
// with the collector (SPSC); the sampling fields are owner-thread-only.
// Padding keeps neighbouring threads' states off each other's cache lines.
type threadState struct {
	ring *Ring
	// sampling is the sticky per-logical-transaction sampling verdict:
	// drawn once at the first attempt, honoured by every later attempt and
	// open of the same transaction.
	sampling bool
	// txSeen counts logical transactions started on this thread (the
	// sampling counter).
	txSeen uint64
	_      [104]byte
}

// Recorder is the hot side of the flight recorder. It implements
// stm.Probe (attempt lifecycle, opens, conflicts) and provides
// FrameAdvanced for core.(*Manager).AddFrameHook. One Recorder serves one
// stm.Runtime.
//
// All transaction-side events go through per-thread SPSC rings; frame
// events arrive on whichever thread advanced the frame, at frame cadence,
// so they share one small mutex-guarded ring — off the transactional hot
// path by construction.
type Recorder struct {
	sample  uint64
	threads []threadState

	auxMu sync.Mutex
	aux   *Ring
}

var _ stm.Probe = (*Recorder)(nil)

// NewRecorder returns a recorder for up to threads threads, sampling one
// logical transaction in sample (sample <= 1 records every transaction).
// ringCap <= 0 selects DefaultRingCap.
func NewRecorder(threads, sample, ringCap int) *Recorder {
	if threads < 1 {
		threads = 1
	}
	if sample < 1 {
		sample = 1
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	r := &Recorder{sample: uint64(sample), threads: make([]threadState, threads)}
	for i := range r.threads {
		r.threads[i].ring = NewRing(ringCap)
	}
	r.aux = NewRing(auxCap)
	return r
}

// Sample returns the configured 1-in-N sampling divisor.
func (r *Recorder) Sample() int { return int(r.sample) }

// state returns the calling transaction's thread slot. Thread IDs are
// dense [0, M) by construction (stm.New numbers them), so this is a bare
// index.
func (r *Recorder) state(tx *stm.Tx) *threadState { return &r.threads[tx.D.ThreadID] }

// OnBegin implements stm.Probe: draws the sampling verdict on the first
// attempt and records the attempt start.
func (r *Recorder) OnBegin(tx *stm.Tx) {
	s := r.state(tx)
	if tx.D.Attempts == 1 {
		s.txSeen++
		s.sampling = r.sample <= 1 || s.txSeen%r.sample == 1
	}
	if !s.sampling {
		return
	}
	s.ring.Push(Event{
		TS: tx.D.AttemptStart, A: tx.D.ID.Load(),
		Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
		Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvBegin,
	})
}

// OnOpen implements stm.Probe. Opens are by far the densest event class
// (a list traversal opens every node it passes), so they reuse the
// attempt's start timestamp instead of reading the clock: the analyses
// consume opens as per-variable counts, and within a thread the stable
// drain order preserves their causal position inside the attempt. Reading
// nanotime ~130 times per sampled list transaction would double its
// length — and a lengthened transaction distorts the very contention the
// trace is meant to show.
func (r *Recorder) OnOpen(tx *stm.Tx) {
	if s := r.state(tx); s.sampling {
		s.ring.Push(Event{
			TS: tx.D.AttemptStart, A: tx.OpenedVar(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvOpen,
		})
	}
}

// OnAcquire implements stm.Probe. Same timestamp economy as OnOpen.
func (r *Recorder) OnAcquire(tx *stm.Tx) {
	if s := r.state(tx); s.sampling {
		s.ring.Push(Event{
			TS: tx.D.AttemptStart, A: tx.OpenedVar(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvAcquire,
		})
	}
}

// OnCommit implements stm.Probe. It runs at commit entry; when validation
// or the status CAS subsequently fails, an EvAbort for the same attempt
// follows, and the cold side treats the later event as the outcome.
func (r *Recorder) OnCommit(tx *stm.Tx) {
	if s := r.state(tx); s.sampling {
		s.ring.Push(Event{
			TS: stm.Now(), A: tx.D.ID.Load(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvCommit,
		})
	}
}

// OnAbort implements stm.Probe.
func (r *Recorder) OnAbort(tx *stm.Tx) {
	if s := r.state(tx); s.sampling {
		s.ring.Push(Event{
			TS: stm.Now(), A: tx.D.ID.Load(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: -1, Kind: EvAbort,
		})
	}
}

// OnResolve implements stm.Probe: it records the decision the runtime is
// about to carry out.
func (r *Recorder) OnResolve(tx, enemy *stm.Tx, kind stm.Kind, dec stm.Decision, wait time.Duration) {
	if s := r.state(tx); s.sampling {
		s.ring.Push(Event{
			TS: stm.Now(), A: enemy.D.ID.Load(), B: tx.OpenedVar(),
			Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
			Thread: int16(tx.D.ThreadID), Enemy: int16(enemy.D.ThreadID),
			Kind: EvConflict, Verdict: uint8(dec) + 1,
		})
		if dec == stm.Wait && wait > 0 {
			s.ring.Push(Event{
				TS: stm.Now(), A: uint64(wait), B: tx.OpenedVar(),
				Seq: int32(tx.D.Seq), Attempt: int32(tx.D.Attempts),
				Thread: int16(tx.D.ThreadID), Enemy: int16(enemy.D.ThreadID),
				Kind: EvWait, Verdict: uint8(dec) + 1,
			})
		}
	}
}

// FrameAdvanced records a window-manager frame advance on the shared
// ring; install it with core.(*Manager).AddFrameHook.
func (r *Recorder) FrameAdvanced(frame int64) {
	e := Event{
		TS: stm.Now(), A: uint64(frame),
		Seq: -1, Attempt: -1, Thread: -1, Enemy: -1, Kind: EvFrame,
	}
	r.auxMu.Lock()
	r.aux.Push(e)
	r.auxMu.Unlock()
}

// Dropped reports the total events rejected across every ring because a
// ring was full.
func (r *Recorder) Dropped() uint64 {
	var n uint64
	for i := range r.threads {
		n += r.threads[i].ring.Dropped()
	}
	return n + r.aux.Dropped()
}

// drainInto appends every published event from every ring to dst. Caller
// must hold the collector's mutex (single-consumer contract).
func (r *Recorder) drainInto(dst []Event) []Event {
	for i := range r.threads {
		dst = r.threads[i].ring.Drain(dst)
	}
	r.auxMu.Lock()
	dst = r.aux.Drain(dst)
	r.auxMu.Unlock()
	return dst
}
