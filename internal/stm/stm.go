// Package stm implements an eager conflict management software
// transactional memory in the style of DSTM/DSTM2, the system the paper
// evaluates its contention managers in.
//
// Properties reproduced from DSTM2 (the ones contention managers observe):
//
//   - Eager conflict management: conflicts are detected at open time (the
//     first read or write of a transactional variable) and the contention
//     manager is consulted immediately.
//   - Visible reads: readers register on the variable, so a writer detects
//     read-write conflicts and must resolve them before committing.
//   - Clone-based (deferred) updates: a writer installs a tentative value
//     next to the committed one; the logical value is decided by the
//     writer's status word, so commit is a single compare-and-swap.
//   - Remote abort: any transaction can abort an enemy with one CAS on the
//     enemy's status word; the victim discovers the abort at its next open
//     or at commit and restarts (greedy retry).
//
// The hot path is lock-free (ISSUE 3): a TVar is a word-based ownership
// record (an atomic locator pointer CAS-acquired on write-open, see
// tvar.go), visible readers register in a sharded atomic slot array
// (readerset.go), and the attempt loop allocates nothing on the committed
// read-only path — each Thread owns one Tx and one Desc that are reused
// across attempts and transactions. Reuse is made safe by packing an
// attempt serial into the status word: a remote abort is a CAS against the
// full packed word, so a stale enemy reference (an attempt that has since
// terminated and been recycled) can never abort a later attempt.
//
// Transactions run inside Thread.Atomic. The user callback reads and writes
// TVars; when the runtime detects that the current attempt has been aborted
// it unwinds the callback with a private panic that Atomic recovers,
// re-running the callback until it commits (the standard Go idiom for
// non-local exits inside a package; the panic never escapes Atomic).
package stm

import (
	"runtime"
	"sync/atomic"
	"time"
)

// epoch anchors all timestamps; time.Since(epoch) uses the monotonic clock,
// so Desc timestamps are totally ordered across threads.
var epoch = time.Now()

// now returns nanoseconds since the package epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// Now returns the runtime's monotonic timestamp (ns since an arbitrary
// epoch), the clock Desc.Birth, Desc.AttemptStart and Desc.Deadline are
// measured on. Contention managers that time attempts read it themselves.
func Now() int64 { return now() }

// Status of one transaction attempt.
type Status int32

const (
	// Active attempts are running and may be aborted by enemies.
	Active Status = iota
	// Committed attempts have taken effect atomically.
	Committed
	// Aborted attempts have no effect; the thread retries.
	Aborted
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return "invalid"
	}
}

// Packed status word layout: the low statusBits hold the Status, the rest
// is the attempt serial. The serial increments once per attempt of the
// owning thread, so a word names one attempt unambiguously: CASing the
// word can only take effect on the attempt it was captured from.
const (
	statusBits = 2
	statusMask = 1<<statusBits - 1
)

// StatusOf extracts the Status from a packed status word (see
// Tx.StatusWord).
func StatusOf(word uint64) Status { return Status(word & statusMask) }

// serialOf extracts the attempt serial from a packed status word.
func serialOf(word uint64) uint64 { return word >> statusBits }

// Desc is the persistent descriptor of one logical transaction. It survives
// across aborted attempts, which is what lets contention managers implement
// policies based on age (Greedy, Priority), accumulated work (Polka),
// or scheduling state (the window managers).
//
// Each Thread owns a single Desc that is recycled across its transactions
// (the zero-allocation attempt loop). Atomic rewrites only the identity
// fields enemy transactions read — ID and Birth, which are atomics — and
// the owner-thread-only budget fields. Every other word has one owner that
// resets it, named in its comment, so starting a transaction stores no
// word it does not have to. The remaining plain fields are either written
// once (ThreadID) or only ever accessed on the owning thread (Seq,
// Attempts, AttemptStart, MaxAttempts, Deadline).
type Desc struct {
	// ThreadID identifies the issuing thread, 0 ≤ ThreadID < M. It is set
	// once when the runtime is built.
	ThreadID int
	// Seq is the 0-based index of this transaction in its thread's stream.
	// Window managers derive the position inside the current window from it.
	// Owner-thread-only.
	Seq int
	// ID is unique across the runtime and used as a final tie-breaker. It is
	// Seq·M + ThreadID + 1: computed from thread-local values, so issuing one
	// writes no shared word, and strictly increasing along each thread.
	ID atomic.Uint64
	// Birth is the transaction's static timestamp (Greedy, Priority,
	// Timestamp and the watchdog order by (Birth, ID), which is total and
	// fixed per transaction). On a timed runtime it is the start of the
	// first attempt (ns since the package epoch). On an untimed runtime
	// (WithoutTxTiming) it is the runtime's coarse tick: the same clock,
	// advanced by aborts at most once per tickGrain and by the watchdog,
	// so it orders transactions born a tick apart and leaves the rest to ID.
	Birth atomic.Int64
	// AttemptStart is the start time of the current attempt, set only on
	// timed runtimes (0 on an untimed one). The flight recorder stamps
	// events with it. Owner-thread-only.
	AttemptStart int64
	// Attempts counts attempts so far, including the current one.
	// Owner-thread-only.
	Attempts int
	// Karma accumulates successfully opened objects across attempts (Polka's
	// priority). Polka owns it: it spends it at commit, and clears it at a
	// first attempt that finds some left by a transaction that panicked
	// out of Atomic.
	Karma atomic.Int64
	// Waiting is set while the transaction is blocked inside a contention
	// manager wait decision (Greedy consults the enemy's flag). resolve owns
	// it: it sets it before every wait and clears it after.
	Waiting atomic.Bool
	// Aux is a scratch word owned by the installed contention manager; the
	// window managers pack their two-level priority vector into it and
	// store it at every transaction's first attempt. No other manager
	// reads it.
	Aux atomic.Uint64
	// MaxAttempts is the attempt budget after which the transaction claims
	// the serialized-fallback token (0 = unbounded). Seeded from the
	// runtime's WithFallback configuration. Owner-thread-only.
	MaxAttempts int
	// Deadline is the absolute time (ns since the package epoch) after
	// which the transaction claims the fallback token (0 = none yet). It
	// is stamped at the transaction's first abort, one WithFallback
	// deadline after it: only an aborted transaction can need the
	// fallback, and the abort path already costs far more than the clock
	// read. Owner-thread-only.
	Deadline int64
}

// Tx is a single attempt of a logical transaction. Each Thread reuses one
// Tx value for every attempt it runs; the packed status word's serial
// distinguishes attempts, so a stale enemy reference can never abort a
// later attempt spuriously (the abort CAS carries the captured serial).
type Tx struct {
	// status is the packed (serial, Status) word — the word enemies read
	// and CAS. It sits first, on its own cache line, so remote abort
	// attempts and status polls do not false-share the owner's hot
	// bookkeeping fields below.
	status atomic.Uint64
	_      [56]byte

	// D is the persistent logical-transaction descriptor. Set once at
	// runtime construction (each thread's Tx points at its own Desc).
	D  *Desc
	rt *Runtime
	// yieldIn counts down opens until the next SetYieldEvery yield
	// (owner-thread-only; see maybeYield).
	yieldIn int64
	// owner is the Thread whose storage this Tx is; the epoch pin slot
	// and the locator pools hang off it. Set once at construction.
	owner *Thread
	// poolOn caches the runtime's locator-pooling gate for the attempt
	// (poolOf reads it on every write-path operation).
	poolOn bool
	// pinned says the attempt holds its epoch pin: taken at its first
	// locator load (pin), dropped by cleanup (epoch.go).
	pinned bool
	// withToken records whether the attempt held the fallback token when
	// it reached its commit CAS (commit). Owner-thread-only.
	withToken bool
	// openVar is the opaque identity of the variable the current open
	// operation targets, for conflict attribution by probes (see
	// OpenedVar). Written only when a probe is installed, so the
	// no-probe hot path never touches it. Owner-thread-only.
	openVar uint64
	writes  []container
	// semOps are the semantic conflict sources registered with this
	// attempt (semantic.go); its backing array is the thread's own line.
	// Owner-thread-only.
	semOps []SemanticOps
}

// OpenedVar returns an opaque identity token for the variable the current
// open operation targets — the TVar a conflict discovered during this open
// is over. It is populated only while a probe is installed (the same gate
// as OnOpen), and is meaningful only inside probe callbacks that run
// during an open: OnResolve and OnAcquire. The token is stable for the
// life of the variable and is never dereferenced; probes use it purely as
// a map key for per-variable attribution.
func (tx *Tx) OpenedVar() uint64 { return tx.openVar }

// Status returns the current status of this attempt.
func (tx *Tx) Status() Status { return StatusOf(tx.status.Load()) }

// StatusWord returns the packed (serial, Status) word of this attempt.
// Capturing the word and later CASing against it (the runtime does this
// for contention-manager abort decisions) is the race-free way to act on
// an enemy observed in a shared structure: if the enemy attempt has since
// terminated — even if its Tx was recycled for a later attempt — the CAS
// fails instead of killing the wrong attempt.
func (tx *Tx) StatusWord() uint64 { return tx.status.Load() }

// serial returns the current attempt serial. Owner-thread-use.
func (tx *Tx) serial() uint64 { return serialOf(tx.status.Load()) }

// beginAttempt advances the serial and marks the attempt Active. Only the
// owning thread calls it, and only while the previous attempt is
// terminated, so a plain store is safe: any stale enemy CAS targets the
// previous serial and fails regardless. The attempt takes no epoch pin
// here: the first locator load does (pin, epoch.go), so an attempt that
// opens no TVar — every kv and txbtree attempt — never pins.
func (tx *Tx) beginAttempt() {
	w := tx.status.Load()
	tx.status.Store((serialOf(w)+1)<<statusBits | uint64(Active))
	tx.poolOn = tx.rt.locPooling
}

// Abort aborts tx's current attempt if it is still active. It is safe to
// call from any goroutine, a probe's hooks included. It reports whether
// this call performed the transition.
//
// Runtime-internal abort decisions do not use Abort: they CAS against a
// status word captured when the enemy was discovered (abortWord), so they
// cannot hit a later attempt. Abort targets whatever attempt is current.
func (tx *Tx) Abort() bool {
	for {
		w := tx.status.Load()
		if StatusOf(w) != Active {
			return false
		}
		if tx.status.CompareAndSwap(w, w&^uint64(statusMask)|uint64(Aborted)) {
			return true
		}
	}
}

// abortWord aborts the attempt named by the captured packed word. It fails
// (returns false) if that attempt is no longer the active one — committed,
// aborted, or already recycled into a later attempt.
func (tx *Tx) abortWord(word uint64) bool {
	if StatusOf(word) != Active {
		return false
	}
	return tx.status.CompareAndSwap(word, word&^uint64(statusMask)|uint64(Aborted))
}

// Runtime ties together M threads and a contention manager.
type Runtime struct {
	cm         ContentionManager
	threads    []*Thread
	yieldEvery atomic.Int64

	// epochSlots holds one padded reclamation pin slot per thread
	// (epoch.go), the same shape as the reader spill table.
	epochSlots []paddedUint64
	// locPooling gates locator recycling. New sets it, and it never changes
	// once a transaction has run.
	locPooling bool

	// probe is the optional observer (see probe.go).
	probe Probe
	// fallback holds the serialized-fallback token (see fallback.go).
	fallback atomic.Pointer[Desc]
	// maxAttempts and txDeadline are the fallback budgets new transactions
	// inherit (WithFallback); zero disables the respective budget.
	maxAttempts int
	txDeadline  time.Duration
	// untimed drops the per-transaction clock reads (WithoutTxTiming).
	untimed bool

	// tick is the coarse clock an untimed runtime stamps Desc.Birth from
	// (advanceTick). It is written at most once per tickGrain, and sits on
	// a line of its own so that store invalidates nothing else.
	_    [56]byte
	tick atomic.Int64
	_    [56]byte
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithoutTxTiming builds an untimed runtime: an attempt that commits first
// time reads no clock. Desc.Birth is the runtime's coarse tick instead of
// a timestamp, Desc.AttemptStart stays 0, TxInfo's durations read 0, and
// the fallback deadline is stamped at a transaction's first abort like on
// a timed runtime. It is for callers that read no TxInfo duration (the kv
// shards); the figures keep the default, timed runtime. An untimed runtime
// takes no probe (WithProbe): the flight recorder stamps its events with
// AttemptStart.
func WithoutTxTiming() Option {
	return func(rt *Runtime) { rt.untimed = true }
}

// tickGrain is how far the clock must have moved past an untimed runtime's
// tick before an abort stores it: a hot abort path writes the tick's line
// at most once per grain.
const tickGrain = int64(time.Millisecond)

// advanceTick moves the runtime tick to t if it lags t by a grain or more.
// The CAS keeps it monotone when aborts race.
func (rt *Runtime) advanceTick(t int64) {
	if old := rt.tick.Load(); t-old >= tickGrain {
		rt.tick.CompareAndSwap(old, t)
	}
}

// New creates a runtime with m threads sharing the contention manager cm.
// Options select non-default strategies (see WithFallback, WithProbe,
// WithoutTxTiming).
func New(m int, cm ContentionManager, opts ...Option) *Runtime {
	if m <= 0 {
		panic("stm: runtime needs at least one thread")
	}
	if m > maxStampThreads {
		panic("stm: thread count exceeds the reader-stamp encoding")
	}
	rt := &Runtime{cm: cm}
	for _, opt := range opts {
		opt(rt)
	}
	if rt.untimed && rt.probe != nil {
		panic("stm: WithProbe needs a timed runtime (probes read Desc.AttemptStart)")
	}
	rt.threads = make([]*Thread, m)
	rt.epochSlots = make([]paddedUint64, m)
	for i := range rt.threads {
		t := &Thread{rt: rt, id: i, boState: uint64(i)*0x9E3779B97F4A7C15 + 1}
		t.desc.ThreadID = i
		t.tx.D = &t.desc
		t.tx.rt = rt
		t.tx.owner = t
		t.tx.semOps = make([]SemanticOps, 0, semOpsCap)
		// Park the reusable attempt in a terminated state so nothing
		// mistakes an idle thread for an active enemy.
		t.tx.status.Store(uint64(Aborted))
		rt.threads[i] = t
	}
	// Locator recycling pays off only when every thread can stay
	// scheduled: an oversubscribed box parks attempts mid-flight with
	// their epoch pins held, grace almost never passes, and the pools
	// would add bookkeeping without recycling anything. So the gate is
	// "threads fit the machine".
	rt.locPooling = m <= runtime.GOMAXPROCS(0)
	return rt
}

// Threads returns the number of threads.
func (rt *Runtime) Threads() int { return len(rt.threads) }

// Thread returns thread i. Each thread must be driven by at most one
// goroutine at a time.
func (rt *Runtime) Thread(i int) *Thread { return rt.threads[i] }

// Manager returns the installed contention manager.
func (rt *Runtime) Manager() ContentionManager { return rt.cm }

// SetYieldEvery makes every k-th open operation of each attempt yield the
// processor (k ≤ 0 disables, the default). On machines with fewer cores
// than threads this recreates the fine-grained interleaving — and hence
// the transactional contention — that truly parallel hardware produces;
// without it, transactions on a single core only overlap at coarse
// scheduler preemption quanta and conflicts all but disappear.
func (rt *Runtime) SetYieldEvery(k int) { rt.yieldEvery.Store(int64(k)) }

// Commits returns the number of transactions committed runtime-wide. Each
// thread counts its own in a single-writer cell (load+store, no locked
// read-modify-write), so the commit path never bounces a shared cache line.
func (rt *Runtime) Commits() int64 {
	var sum int64
	for _, t := range rt.threads {
		sum += t.commits.Load()
	}
	return sum
}

// Aborts returns the number of aborted attempts runtime-wide, counted like
// Commits. Once every transaction has returned it equals the sum of their
// TxInfo.Aborts.
func (rt *Runtime) Aborts() int64 {
	var sum int64
	for _, t := range rt.threads {
		sum += t.aborts.Load()
	}
	return sum
}

// Verdicts counts the conflict decisions the runtime carried out, whether
// the fallback token or the contention manager made them.
type Verdicts struct {
	// AbortEnemy, AbortSelf and Wait count resolutions by decision.
	AbortEnemy, AbortSelf, Wait int64
	// WaitNs is the sum of the granted Wait spans (ns), as the manager
	// returned them.
	WaitNs int64
	// RestartNs is the sum of the restart delays AbortSelf decisions
	// carried (ns), as the manager returned them.
	RestartNs int64
}

// Verdicts returns the runtime-wide decision counts, counted like Commits.
func (rt *Runtime) Verdicts() Verdicts {
	var v Verdicts
	for _, t := range rt.threads {
		v.AbortEnemy += t.abortEnemy.Load()
		v.AbortSelf += t.abortSelf.Load()
		v.Wait += t.waits.Load()
		v.WaitNs += t.waitNs.Load()
		v.RestartNs += t.restartNs.Load()
	}
	return v
}

// RetiredLocators reports how many displaced locators currently await
// their grace period across all threads' retire lists (the telemetry
// retire-length gauge reads this; see pool.go).
func (rt *Runtime) RetiredLocators() int64 {
	var sum int64
	for _, t := range rt.threads {
		sum += t.retiredLocs.Load()
	}
	return sum
}

// Thread issues transactions sequentially, mirroring the paper's model of a
// thread P_i executing N transactions T_i1 … T_iN one after another.
//
// The thread owns the storage of its transactions: one Desc recycled per
// logical transaction and one Tx recycled per attempt. Together with the
// variable-side pooling (reader slots, locator prev-links) this makes the
// committed read-only path allocation-free. Whether a transaction is in
// flight is read off the Tx's status word (inFlight), so starting and
// finishing one publishes nothing beyond the thread's own words.
type Thread struct {
	rt  *Runtime
	id  int
	seq int
	// commits and aborts count this thread's committed transactions and
	// aborted attempts (shards of Runtime.Commits and Runtime.Aborts; the
	// watchdog sums commits to detect lack of progress). Single-writer:
	// only the goroutine driving the thread stores them.
	commits, aborts atomic.Int64
	// abortEnemy … restartNs are this thread's shards of
	// Runtime.Verdicts, bumped in resolve. Single-writer like commits.
	abortEnemy, abortSelf, waits, waitNs, restartNs atomic.Int64
	// restart is the delay the attempt's AbortSelf carried, taken by
	// Atomic before the next attempt. Owner-thread-only.
	restart time.Duration
	// boState is the xorshift state of the retry jitter (abortBackoff).
	boState uint64
	// retiredLocs counts this thread's retired-but-unreclaimed locators
	// across all its typed pools (shard of Runtime.RetiredLocators).
	retiredLocs atomic.Int64
	// pools holds the thread's typed locator recyclers, indexed by the
	// global locator type id (pool.go). Owner-thread-only.
	pools []any

	// desc and tx are the reusable descriptor and attempt (see Desc and
	// Tx for the reuse rules).
	desc Desc
	tx   Tx
}

// ID returns the thread index in [0, M).
func (t *Thread) ID() int { return t.id }

// inFlight reports whether the thread has a transaction in flight: its
// first attempt has begun (serial > 0) and it has not committed. The
// watchdog and the fallback token read it from any goroutine; the
// in-flight transaction's descriptor is &t.desc.
func (t *Thread) inFlight() bool {
	w := t.tx.status.Load()
	return serialOf(w) > 0 && StatusOf(w) != Committed
}

// txp returns the thread's reusable attempt storage (the Tx that reader
// stamps of this thread always denote).
func (t *Thread) txp() *Tx { return &t.tx }

// Runtime returns the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// TxInfo reports what it took to commit one logical transaction. Its three
// durations are measured on timed runtimes only; an untimed runtime
// (WithoutTxTiming) reads no clock for them, and they are 0.
type TxInfo struct {
	// Attempts is the total number of attempts (aborts = Attempts − 1).
	Attempts int
	// Wasted is the time spent in attempts that aborted.
	Wasted time.Duration
	// Duration is the response time: first attempt start to commit.
	Duration time.Duration
	// CommitDur is the duration of the successful attempt only.
	CommitDur time.Duration
	// Fallback reports that the transaction held the serialized-fallback
	// token when it committed (it exhausted its budgets or was rescued by
	// the watchdog).
	Fallback bool
}

// Aborts returns the number of aborted attempts.
func (i TxInfo) Aborts() int { return i.Attempts - 1 }

// retrySignal unwinds the user callback when the current attempt must be
// abandoned. It is recovered inside Atomic and never escapes the package.
type retrySignal struct{}

// Atomic runs fn as a transaction, retrying greedily until it commits, and
// returns commit statistics. fn may be executed many times; it must not
// have side effects outside TVar writes (the usual STM contract).
func (t *Thread) Atomic(fn func(tx *Tx)) TxInfo {
	rt := t.rt
	d := &t.desc
	timed := !rt.untimed
	var birth int64
	if timed {
		birth = now()
		// The first attempt starts at birth; only retries read the clock.
		d.AttemptStart = birth
	} else {
		birth = rt.tick.Load()
	}
	// Recycle the thread's descriptor for this logical transaction: the
	// enemy-visible identity (ID, Birth) and the owner's budgets. Karma,
	// Waiting and Aux are reset by their owners (see Desc).
	d.Seq = t.seq
	d.ID.Store(uint64(t.seq)*uint64(len(rt.threads)) + uint64(t.id) + 1)
	d.Birth.Store(birth)
	d.Attempts = 0
	d.MaxAttempts = rt.maxAttempts
	d.Deadline = 0
	t.seq++
	cm := rt.cm
	var info TxInfo
	for {
		tx := &t.tx
		tx.beginAttempt()
		if timed && d.Attempts > 0 {
			d.AttemptStart = now()
		}
		d.Attempts++
		info.Attempts++
		cm.Begin(tx)
		if p := rt.probe; p != nil {
			p.OnBegin(tx)
		}
		committed := runAttempt(tx, fn)
		var end int64
		if timed {
			end = now()
		}
		if committed {
			cm.Committed(tx)
			t.commits.Store(t.commits.Load() + 1)
			// Release the fallback token if this transaction committed
			// holding it — whether acquired below or granted by the
			// watchdog.
			if tx.withToken {
				info.Fallback = true
				rt.releaseFallback(d)
			}
			if timed {
				info.Duration = time.Duration(end - birth)
				info.CommitDur = time.Duration(end - d.AttemptStart)
			}
			return info
		}
		// The attempt aborted: either remotely (status already Aborted) or
		// by our own AbortSelf decision. Normalize, release everything we
		// hold, notify the manager, and go around again.
		tx.abortWord(tx.status.Load())
		tx.cleanup()
		t.aborts.Store(t.aborts.Load() + 1)
		if timed {
			info.Wasted += time.Duration(end - d.AttemptStart)
		} else {
			end = now()
			rt.advanceTick(end)
		}
		if d.Deadline == 0 && rt.txDeadline > 0 {
			d.Deadline = end + int64(rt.txDeadline)
		}
		cm.Aborted(tx)
		if p := rt.probe; p != nil {
			p.OnAbort(tx)
		}
		// One restart delay, after rollback and outside every attempt's
		// span: the span AbortSelf carried, plus jitter once the
		// transaction is in a kill cycle. Without the jitter, priority-tied
		// transactions abort each other in lockstep indefinitely: the
		// locator pool (pool.go) removed the allocations and GC pauses that
		// used to desynchronize them. A token holder skips the delay, since
		// every starving transaction queues behind it.
		if rt.fallback.Load() != d {
			delay := t.restart
			if d.Attempts > visibleBackoffAfter {
				delay += t.abortBackoff(d.Attempts - visibleBackoffAfter)
			}
			if delay > 0 {
				waitFor(delay)
			}
		}
		t.restart = 0
		// Starvation escape hatch: once the budgets are exhausted, take
		// the serialized-fallback token so the next attempt wins every
		// conflict (fallback.go). Holding no objects here, so blocking on
		// the current holder cannot deadlock.
		if rt.fallback.Load() != d && rt.needFallback(d) {
			rt.acquireFallback(d)
		}
	}
}

// visibleBackoffAfter is how many consecutive aborts a transaction burns
// before abortBackoff engages. Most conflicts resolve within a handful of
// attempts even under heavy contention; a transaction past this budget is
// in a kill cycle, not a queue.
const visibleBackoffAfter = 8

// abortBackoff returns a random span in [0, 1µs << min(attempts-1, 6))
// drawn from the thread's private xorshift stream — long enough to break
// retry lockstep between symmetric transactions that keep aborting each
// other, short enough to be invisible next to an aborted attempt's wasted
// work.
func (t *Thread) abortBackoff(attempts int) time.Duration {
	const (
		base   = time.Microsecond
		maxExp = 6
	)
	n := attempts - 1
	if n > maxExp {
		n = maxExp
	}
	if n < 1 {
		return 0 // first retry: the schedule already shifted, don't pay a sleep
	}
	t.boState ^= t.boState << 13
	t.boState ^= t.boState >> 7
	t.boState ^= t.boState << 17
	return time.Duration(t.boState % uint64(base<<uint(n)))
}

// runAttempt executes fn once and tries to commit, converting the internal
// retry panic into a false return.
func runAttempt(tx *Tx, fn func(tx *Tx)) (committed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(retrySignal); ok {
				committed = false
				return
			}
			panic(r)
		}
	}()
	fn(tx)
	return tx.commit()
}

// commit atomically makes the attempt's writes take effect. Reads are
// visible and writes eagerly owned, so every conflict was resolved at open
// time and the status CAS alone is the serialization point.
func (tx *Tx) commit() bool {
	w := tx.status.Load()
	// Semantic validation runs before the OnCommit probe: a failure fires
	// OnAbort only.
	if len(tx.semOps) > 0 && !tx.semValidate() {
		tx.abortWord(w)
		return false
	}
	if p := tx.rt.probe; p != nil {
		p.OnCommit(tx)
	}
	// A token this attempt holds stays held up to the status CAS (the
	// token is reclaimed only from a holder not in flight); after the CAS
	// a reclaimer may take it at any moment, so record now whether the
	// commit is made under it. A watchdog grant landing after this load
	// is left stale, for clearStaleFallback.
	tx.withToken = tx.rt.fallback.Load() == tx.D
	if StatusOf(w) != Active ||
		!tx.status.CompareAndSwap(w, w&^uint64(statusMask)|uint64(Committed)) {
		return false
	}
	tx.cleanup()
	return true
}

// cleanup releases ownerships after the attempt has terminated
// (either way). With the recycled Tx, folding every owned locator before
// beginAttempt advances the serial is a hard correctness requirement, not
// an optimization: an unfolded locator would keep naming this Tx while the
// pointer starts standing for a different attempt. Visible-read stamps
// need no cleanup — they die automatically when the serial advances
// (readerset.go).
func (tx *Tx) cleanup() {
	// Semantic structures finalize first: a committed attempt applies its
	// buffered key-level writes (and only then drops its key locks), so
	// by the time the TVar ownerships fold below, the structure is
	// already consistent for the readers those folds release.
	tx.semFinalize()
	for _, c := range tx.writes {
		c.release(tx)
	}
	tx.writes = tx.writes[:0]
	// The attempt holds no locator references past this point; drop the
	// reclamation pin, if it took one, so retired locators can recycle
	// (epoch.go).
	if tx.pinned {
		tx.unpin()
	}
}

// selfAbort marks the attempt aborted and unwinds the callback.
func (tx *Tx) selfAbort() {
	tx.abortWord(tx.status.Load())
	panic(retrySignal{})
}

// checkAlive unwinds if an enemy aborted this attempt.
func (tx *Tx) checkAlive() {
	if tx.Status() != Active {
		panic(retrySignal{})
	}
}

// resolve decides the conflict with the enemy attempt named by the packed
// status word eword (captured when the conflict was discovered) and carries
// out the decision. The serialized-fallback token decides first
// (fallbackResolve); only a conflict it leaves open reaches the contention
// manager. attempt counts consecutive resolutions within one open
// operation, which Polka-style managers use as their backoff round. An
// AbortEnemy decision CASes against eword, so it can only kill the attempt
// that was actually observed — never a later recycled attempt of the same
// Tx. An AbortSelf decision records its span as the restart delay Atomic
// takes after rollback. Each carried-out decision is counted in the
// thread's verdict cells (Runtime.Verdicts). resolve must be called
// while holding no speculative invariants that a Wait could violate (it
// may sleep).
func (tx *Tx) resolve(enemy *Tx, eword uint64, kind Kind, attempt *int) {
	*attempt++
	dec, wait, ok := fallbackResolve(tx, enemy)
	if !ok {
		dec, wait = tx.rt.cm.Resolve(tx, enemy, kind, *attempt)
	}
	if p := tx.rt.probe; p != nil {
		p.OnResolve(tx, enemy, kind, dec, wait)
	}
	t := tx.owner
	switch dec {
	case AbortEnemy:
		t.abortEnemy.Store(t.abortEnemy.Load() + 1)
		enemy.abortWord(eword)
	case AbortSelf:
		t.abortSelf.Store(t.abortSelf.Load() + 1)
		t.restartNs.Store(t.restartNs.Load() + int64(wait))
		t.restart = wait
		tx.selfAbort()
	case Wait:
		t.waits.Store(t.waits.Load() + 1)
		t.waitNs.Store(t.waitNs.Load() + int64(wait))
		tx.D.Waiting.Store(true)
		waitFor(wait)
		tx.D.Waiting.Store(false)
		tx.checkAlive()
	}
}
