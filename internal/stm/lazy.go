package stm

// The lazy backend: a TL2-style commit-time-validation engine (engine.go
// says what the two engines share). Where the eager engine detects every
// conflict at open time, the lazy engine runs attempts against a
// version-clock snapshot and defers all write-side work to commit:
//
//   - Reads are invisible and optimistic: each read logs (variable,
//     committed version) into the attempt's read set and is consistent as
//     long as the version does not exceed the attempt's read timestamp rv
//     (the clock value sampled at begin). A read past rv triggers a
//     TinySTM-style snapshot extension — revalidate the whole read set at
//     a fresh clock value and adopt it — instead of an immediate abort.
//   - Writes are buffered in a private write set (lazy_tvar.go); the
//     variable's ownership record is untouched until commit, so running
//     attempts never conflict on writes with each other, only with
//     committing ones.
//   - Commit acquires each buffered write's ownership record (the same
//     word-based locator CAS the eager path uses — the lock *is* the
//     locator), ticks the global version clock to obtain the write
//     version wv, validates the read set, and only then flips the status
//     word. Write-back folds each acquired locator to a quiescent one at
//     version wv and recycles through the same epoch/pool machinery.
//
// Contention management moves with the conflicts: an attempt that finds a
// variable locked by a committing enemy — at read time or during commit
// acquisition — consults the contention manager through the same
// Tx.resolve path as the eager engine (ReadWrite at reads, WriteWrite at
// acquisition), so all managers, the fallback token, the watchdog and the
// probe perturbations work unchanged. Validation failures self-abort
// without CM mediation and get a randomized retry backoff (abortBackoff).
//
// Version-clock sharding: a single global CAS word would be a new
// hot-word bottleneck on the commit path (every writing commit ticks it).
// The clock is instead M shards of padded words; its value is the max
// over shards, and a tick CASes only the calling thread's shard to
// strictly above the global max. Two concurrent ticks on different
// shards may return the same wv — that tie is safe for the same reason
// TL2's GV4 "pass on failure" is: a writer holds all its write locks
// *before* ticking, so by the time any reader can observe a timestamp t,
// every writer with wv ≤ t already holds (or has folded) its locks, and
// readers/validators treat locked variables as conflicts. The ambient
// invariants that argument needs — commit always validates the read set
// (there is no wv == rv+1 validation-skip fast path) and locks are
// acquired before the tick — are load-bearing; do not "optimize" them
// away.
//
// Interplay with non-transactional Set: Set bumps a variable's version
// without consulting any clock, so a populated variable can carry a
// version above the engine clock. The snapshot-extension path detects
// this (version > fresh clock value) and pulls the clock up to the
// variable's version; commit ticks additionally floor wv above every
// acquired locator's version. Both keep per-variable versions strictly
// monotone, which validation depends on.

import "runtime"

// clockShards is the number of padded words the version clock is sharded
// over. Threads map onto shards by index; 8 shards × 64-byte padding keeps
// the common case (M ≤ 8) one-thread-one-line while bounding the read
// (max-over-shards) cost for large M.
const clockShards = 8

// versionClock is the sharded global version clock of the lazy engine.
type versionClock struct {
	shards [clockShards]paddedUint64
}

// current returns the clock value: the maximum across shards.
func (c *versionClock) current() uint64 {
	var max uint64
	for i := range c.shards {
		if v := c.shards[i].v.Load(); v > max {
			max = v
		}
	}
	return max
}

// tick advances the clock and returns a write version strictly greater
// than floor and than every shard value observed during the tick. Only
// the calling thread's shard is CASed, so threads on different shards
// never invalidate each other's tick — the max-over-shards read is the
// only cross-shard traffic. Lost CASes (same-shard contention) retry and
// are counted into the attempt's clock-retry tally.
func (c *versionClock) tick(tx *Tx, floor uint64) uint64 {
	s := &c.shards[tx.D.ThreadID%clockShards].v
	for {
		cur := s.Load()
		next := c.current()
		if floor > next {
			next = floor
		}
		next++
		if next <= cur {
			next = cur + 1
		}
		if s.CompareAndSwap(cur, next) {
			return next
		}
		tx.clockRetries++
	}
}

// advanceTo lifts the clock to at least v (no-op if already there). Used
// when a variable's version is found above the clock — possible only via
// non-transactional Set or variables populated under another runtime.
func (c *versionClock) advanceTo(v uint64) {
	s := &c.shards[0].v
	for {
		cur := s.Load()
		if cur >= v || s.CompareAndSwap(cur, v) {
			return
		}
	}
}

// lazyEngine is the TL2-style protocol above: its version clock plus the
// begin/commit/cleanup steps the attempt loop runs when Runtime.lazy is set.
type lazyEngine struct {
	clock versionClock
}

// WithLazyBackend selects the TL2-style lazy commit-time-validation
// engine instead of the default eager one: invisible reads, where the
// eager engine's are visible.
func WithLazyBackend() Option {
	return func(rt *Runtime) {
		rt.lazy = &lazyEngine{}
	}
}

// begin samples the attempt's read timestamp and clears the lazy tallies.
func (e *lazyEngine) begin(tx *Tx) {
	tx.rv = e.clock.current()
	tx.clockRetries, tx.valExtensions = 0, 0
	tx.commitValNs = 0
}

// commit runs the TL2 commit protocol: acquire the write set, tick the
// clock, validate the read set, CAS the status word, then write back at
// wv. Read-only attempts skip straight to the
// CAS — their reads were kept consistent incrementally (readLazy), so no
// commit-time validation and no clock tick are needed.
func (e *lazyEngine) commit(tx *Tx) bool {
	w := tx.status.Load()
	var wv uint64
	if len(tx.wbuf) > 0 {
		// Phase 1: lock the write set by CAS-acquiring each buffered
		// variable's ownership record. Active enemies found here are
		// commit-time write-write conflicts, resolved through the CM;
		// acquire unwinds (retrySignal) if the resolution aborts us, and
		// Atomic's cleanup releases whatever was already acquired.
		tx.acqAttempt = 0
		var maxVer uint64
		for i := range tx.wbuf {
			if ver := tx.wbuf[i].ent.acquire(tx); ver > maxVer {
				maxVer = ver
			}
		}
		// Phase 2: obtain the write version. The tick must come after all
		// locks are held (see the tie-safety argument above) and must
		// exceed both rv and every acquired version so per-variable
		// versions stay monotone even across Set-populated variables.
		if tx.rv > maxVer {
			maxVer = tx.rv
		}
		wv = e.clock.tick(tx, maxVer)
	}
	// Semantic validation runs BEFORE the tvar read-set check, not after: a
	// committed enemy publishes its tvar folds first (write-back) and its
	// key-level structure effects second (semFinalize), so checking the
	// structures first means any enemy effect observed there implies the
	// enemy's tvar folds have already landed — a stale tvar read is then
	// caught by phase 3 below. The reverse order would admit a commit
	// pairing a pre-enemy tvar snapshot with post-enemy structure state.
	// A failure fires OnAbort only, like a read-set validation failure.
	if len(tx.semOps) > 0 && !tx.semValidate() {
		tx.abortWord(w)
		return false
	}
	// Phase 3: validate the read set at the commit point. With the write
	// set locked, a pass here means every read is still current, so
	// flipping the status word serializes this attempt correctly.
	// Read-only attempts normally skip the check — their reads were kept
	// consistent incrementally at rv — but semantic operations serialize
	// the attempt at the status CAS, not at rv, so any semantic
	// participation forces the check even with an empty write set.
	if len(tx.vreads) > 0 && (len(tx.wbuf) > 0 || len(tx.semOps) > 0) {
		start := now()
		ok := tx.validateLazy()
		tx.commitValNs += now() - start
		if !ok {
			tx.abortWord(w)
			return false
		}
	}
	// The OnCommit probe fires here — after acquisition and validation —
	// because on this engine the commit point is the status CAS with the
	// write set locked; firing earlier would fold the attempt's telemetry
	// (notably commitValNs) before the spans it is meant to carry exist.
	// A validation failure above fires OnAbort only, which folds instead.
	if p := tx.rt.probe; p != nil {
		p.OnCommit(tx)
	}
	if StatusOf(w) != Active ||
		!tx.status.CompareAndSwap(w, w&^uint64(statusMask)|uint64(Committed)) {
		return false
	}
	// Write-back: fold every acquired locator to a quiescent one carrying
	// wv. Until a variable's fold lands, readers that observe the
	// Committed status spin (settledLazy) — the window is a few stores
	// long.
	for i := range tx.wbuf {
		tx.wbuf[i].ent.writeBack(tx, wv)
	}
	e.cleanup(tx)
	return true
}

// cleanup releases whatever the terminated attempt still holds: commit
// locks not yet folded (abort path — write-back already folded them on
// commit), the buffered write entries (recycled to the thread's entry
// pools), the read log, and the reclamation pin.
func (e *lazyEngine) cleanup(tx *Tx) {
	// Semantic structures finalize first (see cleanupEager): a committed
	// attempt applies its key-level writes and releases its key locks
	// before the attempt's remaining lazy state recycles.
	tx.semFinalize()
	for i := range tx.wbuf {
		tx.wbuf[i].ent.release(tx)
		tx.wbuf[i].ent.recycle(tx)
		tx.wbuf[i] = lazyWrite{}
	}
	tx.wbuf = tx.wbuf[:0]
	tx.vreads = tx.vreads[:0]
	if tx.poolOn {
		tx.unpin()
	}
}

// validateLazy checks that every logged read is still the variable's
// settled version. Owner-thread-only; called with the write set locked.
func (tx *Tx) validateLazy() bool {
	for _, r := range tx.vreads {
		if !r.c.lazyValidate(tx, r.ver) {
			return false
		}
	}
	return true
}

// extendSnapshot revalidates the whole read set at a fresh clock value
// and adopts it as the new read timestamp (TinySTM-style timestamp
// extension). ver is the version that exceeded the current rv; if it is
// above even the fresh clock value the clock is pulled up to it first
// (Set-populated variables, see the file comment). Returns false if the
// snapshot is genuinely broken and the attempt must restart.
func (tx *Tx) extendSnapshot(e *lazyEngine, ver uint64) bool {
	newRv := e.clock.current()
	if ver > newRv {
		e.clock.advanceTo(ver)
		newRv = ver
	}
	for _, r := range tx.vreads {
		if !r.c.lazyValidate(tx, r.ver) {
			return false
		}
	}
	tx.rv = newRv
	tx.valExtensions++
	return true
}

// lazyValidate implements the commit-time and extension-time read check
// for the lazy engine: the recorded version must still be the variable's
// settled version. It never trusts a
// Committed-but-unfolded foreign owner (the fold version wv is not
// derivable from the locator) — it waits the few stores until the fold
// lands. A variable locked by an active foreign committer fails
// outright: its write is in flight, so the read cannot be current.
func (v *TVar[T]) lazyValidate(tx *Tx, ver uint64) bool {
	for {
		loc := v.load()
		w := loc.owner
		if w == nil {
			return loc.version == ver
		}
		if w == tx {
			// Our own commit lock: acquisition snapshotted the settled
			// version into the locator, so compare against that.
			return loc.version == ver
		}
		word, ok := ownerView(loc)
		if !ok {
			continue
		}
		switch StatusOf(word) {
		case Active:
			return false
		case Aborted:
			return loc.version == ver
		default: // Committed, fold not yet landed
			runtime.Gosched()
		}
	}
}
