package core

import (
	"sync/atomic"
	"time"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// tauGuess seeds the transaction-duration EWMA before the first commit.
const tauGuess = 2 * time.Microsecond

// Aux packing: the manager stores each transaction's schedule in its
// Desc.Aux word as (assignedFrame << 16) | π⁽²⁾, so Resolve can compute
// both sides' priority vectors from atomics without races. π⁽²⁾ ∈ [1, M]
// fits 16 bits (M ≤ 65535, far beyond any experiment here).
const p2Bits = 16

func packAux(frame int64, p2 uint64) uint64 {
	return uint64(frame)<<p2Bits | (p2 & (1<<p2Bits - 1))
}

func auxFrame(aux uint64) int64 { return int64(aux >> p2Bits) }
func auxP2(aux uint64) uint64   { return aux & (1<<p2Bits - 1) }

// threadState is the per-thread window bookkeeping, and the only state
// the manager keeps besides its configuration and frame clock: every value
// is stored once, on the thread that writes it. Only the owning thread
// writes it (Begin/Committed/Aborted/Resolve run on the transaction's
// thread), so the plain fields need no synchronization; the atomics are
// single-writer cells (owner stores, openSegment of other threads and the
// gauges load). The π⁽²⁾ stream and the contention estimate are held by
// value, so every word a transaction writes here (drawP2, est.sample, τ̂)
// is on the padded state's own lines.
//
// A thread is either outside the window schedule — the initial state — or
// inside it. Outside, its transactions carry frame 0 (π⁽¹⁾ high) with a
// fresh π⁽²⁾ and its commits touch nothing another thread writes: no frame
// registration, no shared counter. It enters on its own first Resolve or
// Aborted (enter) and leaves again when a segment ends without either
// (leave). See DESIGN.md §2.
type threadState struct {
	id  int // index of the thread's range in the frame clock
	rng rng.Rand
	est estimator

	inWindow   atomic.Bool // inside the window schedule (false: outside)
	conflicted bool        // the current segment saw a Resolve or Aborted of this thread

	// tau is the thread's τ̂, the average its sampled attempt times are
	// folded into (fold), inside the window or outside it.
	tau atomic.Int64
	// start is the clock reading at the current attempt's Begin, taken
	// only by the transactions that sample τ̂ (tauSampled).
	start int64

	startSeq  int   // Seq of the segment's first transaction
	remaining int   // transactions left in the segment (≤ N)
	baseFrame int64 // clock frame when the segment started
	q         int64 // the segment's random initial delay, in frames
	assigned  int64 // absolute assigned frame of the current transaction
	badEvents int   // bad events in the current segment

	// cells are the thread's single-writer counters, summed by the gauges.
	cells [numCells]atomic.Int64

	// The states are allocated one by one; the pad rounds the struct up to
	// whole cache lines (a 64-B multiple is its own size class, so the
	// allocator hands it out line-aligned) and two threads' hot fields never
	// share one.
	_ [16]byte
}

// cell names one of a thread's single-writer counters.
type cell int

const (
	cellEntries    cell = iota // entries into the window schedule
	cellCleanExits             // segments that ended clean and took the thread back outside
	cellBadEvents              // transactions that missed their assigned frame
	cellFallbacks              // commits made while holding the fallback token
	cellCollisions             // Resolve calls whose priority vectors tied
	numCells
)

// bump adds one to the thread's counter c: load+store, no read-modify-write.
func (st *threadState) bump(c cell) { st.cells[c].Store(st.cells[c].Load() + 1) }

// sum adds counter c up across the threads.
func (m *Manager) sum(c cell) int64 {
	var n int64
	for _, st := range m.threads {
		n += st.cells[c].Load()
	}
	return n
}

// Manager is the window-based contention manager. It implements
// stm.ContentionManager for every STM-runnable variant; the Config decides
// which member of the family it behaves as.
type Manager struct {
	cfg     Config
	clock   *frameClock
	threads []*threadState
}

var _ stm.ContentionManager = (*Manager)(nil)

// NewManager builds a manager from an explicit configuration.
func NewManager(cfg Config) *Manager {
	if cfg.M <= 0 || cfg.N <= 0 {
		panic("core: Config needs M ≥ 1 and N ≥ 1")
	}
	if cfg.InitialC <= 0 {
		cfg.InitialC = 1
	}
	m := &Manager{cfg: cfg}
	master := rng.New(cfg.Seed)
	m.threads = make([]*threadState, cfg.M)
	for i := range m.threads {
		st := &threadState{id: i, rng: *master.Split()}
		st.est.init(cfg.Estimator, float64(cfg.InitialC))
		st.tau.Store(int64(tauGuess))
		m.threads[i] = st
	}
	m.clock = newFrameClock(cfg.Dynamic, m.frameDur(), cfg.M)
	return m
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// CurrentFrame exposes the frame clock (tests, diagnostics).
func (m *Manager) CurrentFrame() int64 { return m.clock.Current() }

// Occupancy reports the frame clock's live scheduling state: how many
// registered transactions are still pending in the current frame and
// across all frames (dynamic mode; both zero for static configurations).
// It is the per-shard occupancy signal the KV service exports, the same
// numbers the wincm_window_frame_pending / _registered_pending gauges
// sample.
func (m *Manager) Occupancy() (curPending, totalPending int64) {
	return m.clock.occupancy()
}

// AddFrameHook installs fn to be called with the new frame index after
// every frame-clock advance, after any hook already installed; the flight
// recorder's frame track (txtrace.Recorder.FrameAdvanced) is fed this way.
// Install before the runtime executes transactions (plain field, no
// synchronization). fn runs on whichever thread performed the advance,
// outside all clock state — it must be fast and non-blocking, and may be
// called concurrently and out of frame order when two advances race.
func (m *Manager) AddFrameHook(fn func(frame int64)) {
	if prev := m.clock.onAdvance; prev != nil {
		m.clock.onAdvance = func(frame int64) {
			prev(frame)
			fn(frame)
		}
		return
	}
	m.clock.onAdvance = fn
}

// EstimateC returns thread i's current contention estimate C_i.
func (m *Manager) EstimateC(i int) float64 { return m.threads[i].est.value() }

// BadEvents returns the total number of bad events observed so far.
func (m *Manager) BadEvents() int64 { return m.sum(cellBadEvents) }

// FallbackCommits returns the number of commits made under the
// serialized-fallback token; those retire their frames normally but are
// exempt from bad-event accounting (see Committed).
func (m *Manager) FallbackCommits() int64 { return m.sum(cellFallbacks) }

// tau returns the τ̂ frames are sized from: the mean of the τ̂ of the
// threads inside the window, or of every thread's when none is.
func (m *Manager) tau() int64 {
	var in, all, n int64
	for _, st := range m.threads {
		t := st.tau.Load()
		all += t
		if st.inWindow.Load() {
			in += t
			n++
		}
	}
	if n == 0 {
		return all / int64(len(m.threads))
	}
	return in / n
}

// frameDur derives the frame duration Φ = τ̂·ln(MN) from the current
// transaction-duration estimate.
func (m *Manager) frameDur() time.Duration {
	return time.Duration(float64(m.tau()) * lnMN(m.cfg.M, m.cfg.N))
}

// Begin implements stm.ContentionManager. On a transaction's first attempt
// an inside thread advances its window schedule (possibly opening a new
// segment) and assigns the frame and initial priority vector; an outside
// thread stores frame 0 with a fresh π⁽²⁾ — what a thread with C_i = 1 and
// q = 0 would be given, high priority from the start — and nothing else.
// A transaction that samples τ̂ reads the clock at every attempt's start.
func (m *Manager) Begin(tx *stm.Tx) {
	d := tx.D
	st := m.threads[d.ThreadID]
	if d.Attempts == 1 {
		if st.inWindow.Load() {
			m.scheduleNext(st, d)
		} else {
			d.Aux.Store(packAux(0, m.drawP2(st)))
		}
	}
	if tauSampled(d.Seq) {
		st.start = stm.Now()
	}
}

// scheduleNext assigns the next transaction of thread state st to a frame
// with a fresh π⁽²⁾.
func (m *Manager) scheduleNext(st *threadState, d *stm.Desc) {
	m.assign(st, d, m.drawP2(st))
}

// assign gives d the next position of st's segment, opening a new segment
// first when the last one is used up, and publishes (frame, p2) in d.Aux.
func (m *Manager) assign(st *threadState, d *stm.Desc, p2 uint64) {
	if st.remaining == 0 {
		m.openSegment(st, d.Seq, m.cfg.N)
	}
	j := int64(d.Seq - st.startSeq)
	st.assigned = st.baseFrame + st.q + j
	st.remaining--
	d.Aux.Store(packAux(st.assigned, p2))
}

// enter takes an outside thread into the window schedule on its first
// conflict: a segment of N opens under the current estimate, and the
// running transaction d takes position 0 of it, keeping the π⁽²⁾ it already
// holds — so enemies that compared against d before see the same second
// component after.
func (m *Manager) enter(st *threadState, d *stm.Desc) {
	st.inWindow.Store(true)
	st.bump(cellEntries)
	m.assign(st, d, auxP2(d.Aux.Load()))
}

// leave takes the thread back outside after a segment that saw no conflict
// of its own, dropping whatever the segment still has registered.
func (m *Manager) leave(st *threadState) {
	m.clock.drop(st.id)
	st.inWindow.Store(false)
	st.bump(cellCleanExits)
}

// tauWeight is the weight of one attempt duration in the τ̂ average.
const tauWeight = 1.0 / 8

// tauClip caps a sample at this multiple of the τ̂ it is folded into, so an
// attempt stretched by a preemption or a pause moves τ̂ by at most 3/8 of
// itself, while a real rise is still tracked within a few samples.
const tauClip = 4

// tauSampleEvery is how many of a thread's transactions share one τ̂
// sample: τ̂ only sizes frames, so timing one commit in this many keeps the
// estimate and spares the rest both clock reads.
const tauSampleEvery = 8

// tauSampled reports whether a thread's transaction seq times its
// attempts for τ̂.
func tauSampled(seq int) bool { return seq%tauSampleEvery == 0 }

// fold moves the thread's τ̂ one sample's weight toward attempt, clipped at
// tauClip·τ̂.
func (st *threadState) fold(attempt int64) {
	tau := st.tau.Load()
	attempt = min(attempt, tauClip*tau)
	st.tau.Store(tau + int64(tauWeight*float64(attempt-tau)))
}

// openSegment starts a fresh window segment of n transactions at seq:
// resizes frames from the current τ̂ (tau), draws the random delay from the
// current contention estimate and registers the
// schedule — the consecutive frames [base+q, base+q+n), which commits
// retire in order — with the frame clock.
func (m *Manager) openSegment(st *threadState, seq, n int) {
	m.clock.drop(st.id) // leftovers of an abandoned segment
	m.clock.setDur(m.frameDur())
	st.startSeq = seq
	st.remaining = n
	st.baseFrame = m.clock.Current()
	st.q = int64(st.rng.Intn(int(alpha(st.est.value(), m.cfg.M, m.cfg.N))))
	m.clock.open(st.id, st.baseFrame+st.q, int64(n))
}

// drawP2 draws a RandomizedRounds priority uniformly from [1, M].
func (m *Manager) drawP2(st *threadState) uint64 {
	n := m.cfg.M
	if n > 1<<p2Bits-1 {
		n = 1<<p2Bits - 1
	}
	return uint64(1 + st.rng.Intn(n))
}

// Committed implements stm.ContentionManager. A transaction that samples
// τ̂ (tauSampled) folds its attempt time into the thread's τ̂. Inside the
// window the transaction then retires from its frame, bad events are
// detected, and the estimator and window bookkeeping advance; outside it
// nothing another thread writes is touched.
func (m *Manager) Committed(tx *stm.Tx) {
	st := m.threads[tx.D.ThreadID]
	d := tx.D
	if tauSampled(d.Seq) {
		if attempt := stm.Now() - st.start; attempt > 0 {
			st.fold(attempt)
		}
	}
	st.est.sample(false)

	if !st.inWindow.Load() {
		if tx.HoldsFallback() {
			st.bump(cellFallbacks) // a watchdog grant to a transaction that never conflicted
		}
		if m.clock.onAdvance != nil {
			// Frame consumers (the flight recorder) are driven by
			// whoever looks at the clock; keep their cadence.
			m.clock.Current()
		}
		return
	}

	cur := m.clock.Current()
	bad := cur > st.assigned
	m.clock.retire(st.id)

	if tx.HoldsFallback() {
		// A serialized-fallback commit still retires its frame (above) so
		// the clock and registration bookkeeping stay exact, but a missed
		// frame is not charged as a bad event: the miss was forced by the
		// starvation escape (or the faults that triggered it), not by an
		// underestimated C_i, and doubling the estimate on it would
		// inflate every later window.
		st.bump(cellFallbacks)
	} else if bad {
		st.badEvents++
		st.bump(cellBadEvents)
		if st.est.onBadEvent() && st.remaining > 0 {
			// Start over with the remaining transactions under the new
			// estimate (the paper's adaptive restart).
			m.openSegment(st, d.Seq+1, st.remaining)
		}
	}
	if st.remaining == 0 {
		st.est.onWindowEnd(st.badEvents > 0)
		st.badEvents = 0
		if !st.conflicted {
			m.leave(st) // clean segment: nothing here needs a schedule
		}
		st.conflicted = false // a conflicted one chains into the next at Begin
	}
}

// conflict records that st's thread met a conflict (a Resolve of its own or
// an abort), entering the window schedule with the running transaction d if
// the thread was outside.
func (m *Manager) conflict(st *threadState, d *stm.Desc) {
	if !st.inWindow.Load() {
		m.enter(st, d)
	}
	st.conflicted = true
}

// Aborted implements stm.ContentionManager: enter the window if this is the
// thread's first conflict, redraw π⁽²⁾ and feed the contention sample to the
// estimator.
func (m *Manager) Aborted(tx *stm.Tx) {
	st := m.threads[tx.D.ThreadID]
	m.conflict(st, tx.D)
	st.est.sample(true)
	aux := tx.D.Aux.Load()
	tx.D.Aux.Store(packAux(auxFrame(aux), m.drawP2(st)))
}

// Opened implements stm.ContentionManager (window managers do not use
// open-based priorities).
func (m *Manager) Opened(*stm.Tx) {}

// Resolve implements stm.ContentionManager: compare the two priority
// vectors (π⁽¹⁾, π⁽²⁾) lexicographically; lower order wins and aborts the
// other. A final ID comparison makes the order total so some side always
// makes progress. The loser is granted loserPatience short waiting rounds
// (re-resolving with fresh priorities each time, so a frame switch or a
// π⁽²⁾ redraw can still flip the outcome) before aborting itself.
//
// Resolve runs on tx's thread, and a thread's first Resolve is where it
// enters the window: by the time priorities are compared tx has a
// registered frame. An enemy still outside carries frame 0 and reads as
// π⁽¹⁾ high, which is what its own entry would make it at q = 0. A
// conflict the serialized-fallback token decides never gets here (the
// runtime settles it first), so it does not enter the window; Committed
// copes with a token holder that is outside.
func (m *Manager) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	st := m.threads[tx.D.ThreadID]
	m.conflict(st, tx.D)
	cur := m.clock.Current()
	mine := m.prio(cur, tx.D)
	theirs := m.prio(cur, enemy.D)
	if mine == theirs {
		// Both sides drew the same (π⁽¹⁾, π⁽²⁾) vector; only the ID
		// tie-break decides. RandomizedRounds' analysis assumes these
		// collisions are rare — telemetry makes the assumption checkable.
		st.bump(cellCollisions)
	}
	if mine < theirs || (mine == theirs && tx.D.ID.Load() < enemy.D.ID.Load()) {
		return stm.AbortEnemy, 0
	}
	if attempt <= loserPatience {
		// Exponentially growing grace spans, like Polka's backoff,
		// capped at ~4ms so patience stays responsive.
		exp := attempt - 1
		if exp > 10 {
			exp = 10
		}
		return stm.Wait, (4 * time.Microsecond) << uint(exp)
	}
	return stm.AbortSelf, 0
}

// prio computes the packed priority vector of d at frame cur: the high bit
// block is π⁽¹⁾ (0 once the assigned frame has started, 1 before), the low
// bits are π⁽²⁾. Smaller value ⇒ higher priority.
func (m *Manager) prio(cur int64, d *stm.Desc) uint64 {
	aux := d.Aux.Load()
	p := auxP2(aux)
	if cur < auxFrame(aux) {
		p |= 1 << 32 // low priority
	}
	return p
}
