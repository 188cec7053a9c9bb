package stm

import (
	"runtime"
	"sync/atomic"
	"time"
)

// container is the type-erased view of a *TVar[T] that attempt cleanup
// uses; it keeps Tx free of type parameters.
type container interface {
	release(tx *Tx)
}

// locator is the word-based ownership record of a TVar: the DSTM locator
// with the fold collapsed into the CAS path. The variable holds a single
// atomic pointer to its current locator; acquiring ownership, committing a
// fold and restoring an aborted write are all CASes of that one word.
//
// Every field is immutable after the locator is published, with one
// deliberate exception: newVal may be rewritten by the owning attempt
// while it is Active (re-writes of an owned variable are in-place and
// allocation-free). Other threads read newVal only after observing the
// owner's status word as Committed, which orders those reads after every
// owner write — so the exception is race-free.
//
// owner == nil marks a quiescent locator: the committed value lives in
// oldVal and version is its commit version. owner != nil names the attempt
// (Tx pointer plus attempt serial) that installed the locator; the logical
// value is then decided by that attempt's packed status word (settledView).
type locator[T any] struct {
	owner   *Tx
	serial  uint64 // owner's attempt serial at acquisition
	oldVal  T      // committed value at acquisition
	newVal  T      // owner's tentative value
	version uint64 // commit version of oldVal
	// prev is the quiescent locator this acquisition replaced, if the
	// replaced locator was already quiescent. An aborting owner restores
	// it with one CAS instead of allocating a fold.
	prev *locator[T]
}

// settledView resolves the committed value and version of loc given the
// owner status st observed for loc's owning attempt. It is the old
// per-variable fold with every writer status spelled out:
//
//   - Committed: the tentative value has logically taken effect even if no
//     fold CAS has landed yet — the value is newVal at version+1.
//   - Aborted: the write never happened; the value is oldVal at version.
//   - Active: the writer is still speculative, so the committed value is
//     still oldVal at version (callers that cannot tolerate an active
//     writer resolve the conflict before calling this).
func settledView[T any](loc *locator[T], st Status) (T, uint64) {
	switch st {
	case Committed:
		return loc.newVal, loc.version + 1
	case Aborted:
		return loc.oldVal, loc.version
	case Active:
		return loc.oldVal, loc.version
	default:
		// Unreachable: status words only carry the three states above.
		return loc.oldVal, loc.version
	}
}

// TVar is a transactional variable holding a value of type T. Values are
// copied in and out, so T should be a value type or an immutable snapshot
// (benchmark data structures store small node structs and build linkage
// with *TVar pointers, which are stable identities).
//
// The representation is lock-free: loc is the word-based ownership record
// (see locator) and readers is the sharded visible-reader table (see
// readerset.go). There is no per-variable mutex anywhere. pid caches the
// global id of T's locator pool so the write path finds the calling
// thread's recycler with one load (pool.go).
type TVar[T any] struct {
	loc     atomic.Pointer[locator[T]]
	readers readerSet
	pid     atomic.Int32
}

// NewTVar returns a variable initialized to v. The zero TVar holds the
// zero value of T and is also ready to use.
func NewTVar[T any](v T) *TVar[T] {
	tv := &TVar[T]{}
	tv.loc.Store(&locator[T]{oldVal: v})
	return tv
}

// load returns the variable's current locator, installing the zero-value
// quiescent locator on first touch of a zero TVar.
func (v *TVar[T]) load() *locator[T] {
	if l := v.loc.Load(); l != nil {
		return l
	}
	v.loc.CompareAndSwap(nil, new(locator[T]))
	return v.loc.Load()
}

// ownerView inspects loc's ownership for accessor tx. It returns the
// observed packed status word of the owning attempt and ok=true when the
// observation is coherent; ok=false means loc went stale underneath us
// (its owner has already folded and moved on) and the caller must reload
// the locator. For a quiescent locator it returns ok=true with an
// artificial Committed-free view (owner nil handled by callers first).
func ownerView[T any](loc *locator[T]) (word uint64, ok bool) {
	w := loc.owner.status.Load()
	// The serial binds the word to the acquiring attempt: owners fold
	// every owned locator before recycling the Tx for the next attempt,
	// so a mismatch proves loc is no longer reachable from the variable.
	return w, serialOf(w) == loc.serial
}

// Peek returns the current committed value without a transaction. It is
// linearizable on its own but provides no consistency across multiple
// Peeks; tests and verification code use it between runs. Running outside
// any attempt, it holds an external reclamation pin (epoch.go) so the
// locator it inspects cannot be recycled underneath it.
func (v *TVar[T]) Peek() T {
	s := extPin()
	defer extUnpin(s)
	for {
		loc := v.load()
		if loc.owner == nil {
			return loc.oldVal
		}
		w, ok := ownerView(loc)
		if !ok {
			continue
		}
		val, _ := settledView(loc, StatusOf(w))
		return val
	}
}

// Set stores a committed value without a transaction, linearizable at its
// CAS. It is meant for populating benchmarks between runs; racing it
// against active transactions is memory-safe and race-clean, but a
// concurrent transactional write of the same variable may be overwritten
// (last CAS wins).
func (v *TVar[T]) Set(val T) {
	s := extPin()
	defer extUnpin(s)
	// One locator per call, reused across CAS retries; only its version
	// can differ between iterations, and it is unpublished until the CAS
	// lands. The displaced locator is left to the GC — Set runs on no
	// runtime thread, so it has no retire list (pool.go).
	next := &locator[T]{oldVal: val}
	for {
		loc := v.load()
		var ver uint64
		if loc.owner == nil {
			ver = loc.version
		} else {
			w, ok := ownerView(loc)
			if !ok {
				continue
			}
			_, ver = settledView(loc, StatusOf(w))
		}
		next.version = ver + 1
		if v.loc.CompareAndSwap(loc, next) {
			return
		}
	}
}

// release folds the variable if tx owns it (post-termination cleanup).
// A committed owner installs the folded quiescent locator; an aborted
// owner restores the pre-acquisition locator (prev) when it is available,
// avoiding the allocation entirely. Folded locators come from and return
// to the thread's recycler (pool.go): the fold CAS is what unlinks the
// displaced locator, so the CAS winner — and only the winner — retires it.
func (v *TVar[T]) release(tx *Tx) {
	pool := poolOf[T](tx, v)
	for {
		loc := v.loc.Load()
		if loc == nil || loc.owner != tx {
			// Not ours (or already replaced by an acquiring enemy that
			// folded us into its own CAS path — the enemy's fold retires
			// our locator, not us).
			return
		}
		var next *locator[T]
		var zero T
		// private: next is ours alone (popped or freshly allocated), so a
		// lost CAS may return it straight to the free list. The reinstated
		// prev in the abort branch is NOT private — if our CAS loses it,
		// the winning enemy's fold has already retired it.
		private := true
		committed := false
		switch tx.Status() {
		case Committed:
			committed = true
			if next = pool.get(); next == nil {
				next = new(locator[T])
			}
			next.owner, next.serial = nil, 0
			next.oldVal, next.newVal = loc.newVal, zero
			next.version = loc.version + 1
			next.prev = nil
		case Aborted:
			if loc.prev != nil {
				next = loc.prev
				private = false
			} else {
				if next = pool.get(); next == nil {
					next = new(locator[T])
				}
				next.owner, next.serial = nil, 0
				next.oldVal, next.newVal = loc.oldVal, zero
				next.version = loc.version
				next.prev = nil
			}
		default:
			// release only runs after termination; tolerate a torn call.
			return
		}
		if v.loc.CompareAndSwap(loc, next) {
			// The CAS unlinked loc; on commit it also orphaned loc.prev
			// (the quiescent locator our acquisition displaced). On abort,
			// prev (if any) was just reinstated: live, not retired.
			if committed {
				pool.retireFolded(loc)
			} else {
				pool.retire(loc)
			}
			return
		}
		if private {
			pool.put(next)
		}
	}
}

// Read opens v for reading inside tx and returns its value. The read is
// visible: tx registers in the variable's reader table so later writers
// conflict with it. If tx has written v, Read returns the tentative value.
//
// Opacity: the value returned is always the latest committed value at a
// moment when tx was still active, and any transaction that later writes v
// must first resolve against tx (writers scan the reader table after
// acquiring), so no attempt ever observes state from two different commit
// orders. The registration-then-load order is what closes the race: the
// value is always loaded after the registration is visible, so a writer
// acquiring concurrently either sees our slot or we see its ownership.
func Read[T any](tx *Tx, v *TVar[T]) T {
	tx.maybeYield()
	if p := tx.rt.probe; p != nil {
		tx.openVar = v.token()
		p.OnOpen(tx)
	}
	// Stamp the registration before the first locator load: every value
	// below is read with the stamp already visible, so a concurrent writer
	// either sees the stamp in its post-acquisition scan or we see its
	// ownership here. (Stamping a variable tx itself owns is harmless —
	// writer scans skip the writer's own slot.)
	if v.readers.register(tx) {
		tx.rt.cm.Opened(tx)
	}
	tx.pin()
	attempt := 0
	for {
		tx.checkAlive()
		loc := v.load()
		w := loc.owner
		if w == tx {
			return loc.newVal
		}
		var val T
		if w == nil {
			val = loc.oldVal
		} else {
			word, ok := ownerView(loc)
			if !ok {
				continue
			}
			if StatusOf(word) == Active {
				tx.resolve(w, word, ReadWrite, &attempt)
				continue
			}
			val, _ = settledView(loc, StatusOf(word))
		}
		// Still alive after the load: a writer of anything tx has read must
		// abort tx before it commits, so no such commit precedes this point
		// and val belongs to the same snapshot as tx's earlier reads. Without
		// the re-check an attempt aborted between the check above and the
		// load would hand its callback a value from after that commit.
		tx.checkAlive()
		return val
	}
}

// Write opens v for writing inside tx (see acquire) and installs val as the
// tentative value.
func Write[T any](tx *Tx, v *TVar[T], val T) {
	loc, _ := acquire(tx, v)
	loc.newVal = val
}

// Modify reads v and writes f(current) back as a single open-for-write:
// one ownership acquisition instead of a Read (reader registration, reader
// resolution) followed by a Write (acquisition, second probe dispatch).
// f runs once per call, but the attempt around it may be retried, so it
// must be pure. The function value is passed through ModifyArg as its
// argument, which keeps the call allocation-free: both func values are
// static, so neither closes over anything.
func Modify[T any](tx *Tx, v *TVar[T], f func(T) T) {
	ModifyArg(tx, v, f, applyFn[T])
}

// applyFn adapts Modify's unary function to ModifyArg's shape.
func applyFn[T any](cur T, f func(T) T) T { return f(cur) }

// ModifyArg is Modify with an explicit argument threaded through to f, so
// callers can use a static top-level function instead of a closure — a
// closure capturing loop state allocates on every call; a static func
// value never does. The read is subsumed by the acquisition: the CAS that
// installs ownership settles the value f consumes as the variable's current
// one, and ownership from that point blocks every conflicting writer, so the
// read-compute-write is atomic without touching the reader table. Like
// Modify's, f runs once per call and must be pure.
func ModifyArg[T, A any](tx *Tx, v *TVar[T], arg A, f func(T, A) T) {
	loc, cur := acquire(tx, v)
	loc.newVal = f(*cur, arg)
}

// acquire opens v for writing inside tx and returns the locator tx owns it
// through, with cur pointing at the value tx sees in v. Acquisition is eager
// and lock-free: ownership is taken with one CAS on the variable's locator
// word (any terminated previous owner is folded into the same CAS), then all
// visible readers are resolved before the open returns — so every write-write
// and write-read conflict is arbitrated by the contention manager before user
// code proceeds. The caller sets newVal after the publish CAS, as the locator
// comment allows; the attempt's epoch pin keeps the locator from recycling.
func acquire[T any](tx *Tx, v *TVar[T]) (own *locator[T], cur *T) {
	tx.maybeYield()
	if p := tx.rt.probe; p != nil {
		tx.openVar = v.token()
		p.OnOpen(tx)
	}
	pool := poolOf[T](tx, v)
	tx.pin()
	attempt := 0
	for {
		tx.checkAlive()
		loc := v.load()
		if w := loc.owner; w != nil {
			if w == tx {
				// Re-open of an owned variable: in-place, no allocation.
				return loc, &loc.newVal
			}
			word, ok := ownerView(loc)
			if !ok {
				continue
			}
			if StatusOf(word) == Active {
				tx.resolve(w, word, WriteWrite, &attempt)
				continue
			}
			// Terminated owner: fold it into our acquisition CAS.
		}
		// Resolve visible readers before acquiring, so contention-manager
		// waits against readers are served while holding nothing — an
		// ownership held through a sleep would serialize every reader of
		// the variable behind this writer.
		v.readers.resolveWriters(tx, &attempt)
		next := pool.get()
		if next == nil {
			next = new(locator[T])
		}
		// Recycled locators arrive poisoned: every field but newVal (the
		// caller's) is (re)assigned here, on both branches, before the CAS.
		next.owner, next.serial = tx, tx.serial()
		if loc.owner == nil {
			next.oldVal, next.version = loc.oldVal, loc.version
			next.prev = loc
		} else {
			word, ok := ownerView(loc)
			if !ok {
				pool.put(next)
				continue
			}
			next.oldVal, next.version = settledView(loc, StatusOf(word))
			next.prev = nil
		}
		if !v.loc.CompareAndSwap(loc, next) {
			// next was never published; no other thread saw it.
			pool.put(next)
			continue
		}
		if loc.owner != nil {
			// Our CAS folded a terminated enemy's locator: loc is now
			// unreachable, and so is the quiescent prev it displaced (the
			// enemy's release, had it won, would have reinstated or folded
			// it — losing the CAS hands both to us).
			pool.retireFolded(loc)
		}
		tx.writes = append(tx.writes, v)
		// Re-scan after the acquisition CAS: a reader that registered
		// during the race sees our ownership on its post-registration
		// reload, and one registered before is seen here — either way the
		// read-write conflict is resolved before we can commit. The scan is
		// normally settled already (the pre-acquisition pass drained it).
		v.readers.resolveWriters(tx, &attempt)
		if tx.Status() != Active {
			panic(retrySignal{})
		}
		if p := tx.rt.probe; p != nil {
			p.OnAcquire(tx)
		}
		tx.rt.cm.Opened(tx)
		return next, &next.oldVal
	}
}

// maybeYield implements the runtime's interleaving knob (SetYieldEvery):
// every k-th open yields the processor. It runs before any ownership CAS
// is attempted. The cadence is tracked with a countdown rather than an
// open count mod k — the modulo's hardware division is measurable at one
// call per open.
func (tx *Tx) maybeYield() {
	k := tx.rt.yieldEvery.Load()
	if k <= 0 {
		return
	}
	tx.yieldIn--
	if tx.yieldIn <= 0 {
		tx.yieldIn = k
		runtime.Gosched()
	}
}

// spinThreshold is the wait length below which waitFor spins (yielding the
// processor) instead of sleeping; time.Sleep cannot resolve microseconds,
// and parking every waiter empties the runqueue when conflicts cluster.
const spinThreshold = 50 * time.Microsecond

// waitFor blocks the calling goroutine for roughly d. It serves restart
// delays (the span an AbortSelf carries, abortBackoff) and the Waits
// resolve does not park (parkAbove); a longer Wait parks on its enemy.
func waitFor(d time.Duration) {
	if d <= 0 {
		runtime.Gosched()
		return
	}
	if d <= spinThreshold {
		deadline := now() + int64(d)
		for now() < deadline {
			runtime.Gosched()
		}
		return
	}
	time.Sleep(d)
}
