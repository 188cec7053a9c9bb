package core

import (
	"math"
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

// threadState is the per-thread window bookkeeping. Only the owning thread
// writes it (Begin/Committed/Aborted/Resolve run on the transaction's
// thread), so the plain fields need no synchronization; the atomics are
// single-writer cells (owner stores, gauges load from any goroutine). The
// π⁽²⁾ stream and the contention estimate are held by value, so every word
// a transaction writes here (drawP2, est.sample, τ̂) is on the padded
// state's own lines.
//
// A thread is either outside the window schedule — the initial state — or
// inside it. Outside, its transactions carry frame 0 (π⁽¹⁾ high) with a
// fresh π⁽²⁾ and its commits touch nothing another thread reads or writes:
// no frame registration, no shared τ̂, no shared counter. It enters on its
// own first Resolve or Aborted (enter) and leaves again when a segment ends
// without either (leave). See DESIGN.md §2.
type threadState struct {
	id  int // index of the thread's range word in the frame clock
	rng rng.Rand
	est estimator

	inWindow   atomic.Bool // inside the window schedule (false: outside)
	conflicted bool        // the current segment saw a Resolve or Aborted of this thread

	// tau is the thread-local τ̂ an outside thread folds its attempt times
	// into, seeded from the shared estimate when the thread goes outside;
	// tauN counts the samples folded since, the weight enter merges it with.
	tau  int64
	tauN int

	startSeq  int   // Seq of the segment's first transaction
	remaining int   // transactions left in the segment (≤ N)
	baseFrame int64 // clock frame when the segment started
	q         int64 // the segment's random initial delay, in frames
	assigned  int64 // absolute assigned frame of the current transaction
	badEvents int   // diagnostics: bad events seen by this thread

	// cPub mirrors est.value() as float bits so telemetry gauges can read
	// the contention estimate from any goroutine; only the owner thread
	// stores it (publishC), at every point the estimate can change.
	cPub atomic.Uint64

	// cells are the thread's single-writer counters, summed by the gauges.
	cells [numCells]atomic.Int64

	// The states are allocated one by one; the pad rounds the struct up to
	// whole cache lines (a 64-B multiple is its own size class, so the
	// allocator hands it out line-aligned) and two threads' hot fields never
	// share one.
	_ [32]byte
}

// cell names one of a thread's single-writer counters.
type cell int

const (
	cellEntries    cell = iota // entries into the window schedule
	cellCleanExits             // segments that ended clean and took the thread back outside
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

// publishC republishes the thread's contention estimate for gauge readers.
func (st *threadState) publishC() {
	st.cPub.Store(math.Float64bits(st.est.value()))
}

// Manager is the window-based contention manager. It implements
// stm.ContentionManager for every STM-runnable variant; the Config decides
// which member of the family it behaves as.
type Manager struct {
	cfg        Config
	clock      *frameClock
	threads    []*threadState
	tauNs      atomic.Int64 // EWMA of committed-attempt durations
	bads       atomic.Int64 // total bad events (transactions missing frames)
	fallbacks  atomic.Int64 // commits made while holding the fallback token
	collisions atomic.Int64 // Resolve calls whose priority vectors tied
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
	m := &Manager{
		cfg:   cfg,
		clock: newFrameClock(cfg.Dynamic, tauGuess, cfg.M), // recalibrated below
	}
	m.tauNs.Store(int64(tauGuess))
	m.clock.setDur(m.frameDur())
	master := rng.New(cfg.Seed)
	m.threads = make([]*threadState, cfg.M)
	for i := range m.threads {
		m.threads[i] = &threadState{
			id:  i,
			rng: *master.Split(),
			est: newEstimator(cfg.Estimator, float64(cfg.InitialC)),
			tau: int64(tauGuess),
		}
		m.threads[i].publishC()
	}
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
func (m *Manager) BadEvents() int64 { return m.bads.Load() }

// FallbackCommits returns the number of commits made under the
// serialized-fallback token; those retire their frames normally but are
// exempt from bad-event accounting (see Committed).
func (m *Manager) FallbackCommits() int64 { return m.fallbacks.Load() }

// frameDur derives the frame duration Φ = τ̂·ln(MN) from the current
// transaction-duration estimate.
func (m *Manager) frameDur() time.Duration {
	tau := float64(m.tauNs.Load())
	return time.Duration(tau * lnMN(m.cfg.M, m.cfg.N))
}

// Begin implements stm.ContentionManager. On a transaction's first attempt
// an inside thread advances its window schedule (possibly opening a new
// segment) and assigns the frame and initial priority vector; an outside
// thread stores frame 0 with a fresh π⁽²⁾ — what a thread with C_i = 1 and
// q = 0 would be given, high priority from the start — and nothing else.
func (m *Manager) Begin(tx *stm.Tx) {
	if tx.D.Attempts != 1 {
		return
	}
	st := m.threads[tx.D.ThreadID]
	if st.inWindow.Load() {
		m.scheduleNext(st, tx.D)
	} else {
		tx.D.Aux.Store(packAux(0, m.drawP2(st)))
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
// conflict. The thread-local τ̂ is merged into the shared one with the
// weight its tauN samples would have carried had each been applied there
// directly, 1 − (7/8)^tauN; a segment of N opens under the current estimate;
// and the running transaction d takes position 0 of it, keeping the π⁽²⁾ it
// already holds — so enemies that compared against d before see the same
// second component after.
func (m *Manager) enter(st *threadState, d *stm.Desc) {
	if st.tauN > 0 {
		m.blendTau(st.tau, 1-math.Pow(1-tauWeight, float64(st.tauN)))
	}
	st.inWindow.Store(true)
	st.bump(cellEntries)
	m.assign(st, d, auxP2(d.Aux.Load()))
}

// leave takes the thread back outside after a segment that saw no conflict
// of its own, dropping whatever the segment still has registered and
// seeding the local τ̂ from the shared one.
func (m *Manager) leave(st *threadState) {
	m.clock.drop(st.id)
	st.tau, st.tauN = m.tauNs.Load(), 0
	st.inWindow.Store(false)
	st.bump(cellCleanExits)
}

// tauWeight is the weight of one attempt duration in the τ̂ average.
const tauWeight = 1.0 / 8

// blendTau moves the shared τ̂ the fraction w of the way to sample and
// recalibrates the frame size. The read-modify-write is a CAS loop: threads
// commit concurrently, and a plain Load-then-Store would drop every sample
// that raced with another commit's update.
func (m *Manager) blendTau(sample int64, w float64) {
	for {
		old := m.tauNs.Load()
		if m.tauNs.CompareAndSwap(old, old+int64(w*float64(sample-old))) {
			break
		}
	}
	m.clock.setDur(m.frameDur())
}

// openSegment starts a fresh window segment of n transactions at seq:
// draws the random delay from the current estimate and registers the
// schedule — the consecutive frames [base+q, base+q+n), which commits
// retire in order — with the frame clock.
func (m *Manager) openSegment(st *threadState, seq, n int) {
	m.clock.drop(st.id) // leftovers of an abandoned segment
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

// Committed implements stm.ContentionManager. Inside the window: recalibrate
// τ̂, retire the transaction from its frame, detect bad events, and let the
// estimator and window bookkeeping advance. Outside it: fold the attempt
// time into the thread-local τ̂ — no shared word is written.
func (m *Manager) Committed(tx *stm.Tx) {
	st := m.threads[tx.D.ThreadID]
	d := tx.D
	attempt := d.AttemptEnd - d.AttemptStart
	st.est.sample(false)

	if !st.inWindow.Load() {
		if attempt > 0 {
			st.tau += int64(tauWeight * float64(attempt-st.tau))
			st.tauN++
		}
		if tx.HoldsFallback() {
			m.fallbacks.Add(1) // a watchdog grant to a transaction that never conflicted
		}
		if m.clock.onAdvance != nil {
			// Frame consumers (the flight recorder) are driven by
			// whoever looks at the clock; keep their cadence.
			m.clock.Current()
		}
		return
	}

	if attempt > 0 {
		m.blendTau(attempt, tauWeight)
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
		m.fallbacks.Add(1)
	} else if bad {
		st.badEvents++
		m.bads.Add(1)
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
	st.publishC()
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
	m.conflict(m.threads[tx.D.ThreadID], tx.D)
	cur := m.clock.Current()
	mine := m.prio(cur, tx.D)
	theirs := m.prio(cur, enemy.D)
	if mine == theirs {
		// Both sides drew the same (π⁽¹⁾, π⁽²⁾) vector; only the ID
		// tie-break decides. RandomizedRounds' analysis assumes these
		// collisions are rare — telemetry makes the assumption checkable.
		m.collisions.Add(1)
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
