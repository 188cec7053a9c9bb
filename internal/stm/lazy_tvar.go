package stm

import "runtime"

// Generic TVar entry points of the lazy engine (see lazy.go for the
// protocol). Read/Write/Modify in tvar.go dispatch here when the runtime
// runs the lazy backend; everything below is owner-thread-only except the
// locator CASes, which follow the same publication rules as the eager
// path.

// lazyEnt is the type-erased handle of one buffered write; the typed
// state lives in lazyEntry[T]. The methods run in commit/cleanup order:
// acquire (lock the variable), then either writeBack (commit) or release
// (abort), then recycle (return the box to the thread's entry pool).
type lazyEnt interface {
	acquire(tx *Tx) uint64
	writeBack(tx *Tx, wv uint64)
	release(tx *Tx)
	recycle(tx *Tx)
}

// lazyWrite pairs the handle with the variable's identity token so the
// read-own-write and re-write scans compare plain words instead of
// making an interface call per entry.
type lazyWrite struct {
	key uint64
	ent lazyEnt
}

// lazyEntry is one buffered write of variable v. val is the tentative
// value (rewritten in place on re-writes); loc is the ownership record
// installed at commit-time acquisition, nil outside the commit window.
type lazyEntry[T any] struct {
	v   *TVar[T]
	val T
	loc *locator[T]
	// next links the entry through the thread's typed free list while
	// recycled (entryPool); dead while the entry is in use.
	next *lazyEntry[T]
}

// findEntry returns tx's buffered write of v, or nil.
func findEntry[T any](tx *Tx, v *TVar[T]) *lazyEntry[T] {
	key := v.token()
	for i := range tx.wbuf {
		if tx.wbuf[i].key == key {
			return tx.wbuf[i].ent.(*lazyEntry[T])
		}
	}
	return nil
}

// readLazy performs an invisible, version-logged read against the
// attempt's clock snapshot. A buffered write of v short-circuits to the
// tentative value. A settled version past rv means the snapshot aged;
// the attempt tries a snapshot extension before giving up. The committed
// read path allocates nothing: the read log entry is a (pointer, word)
// pair appended to a recycled slice.
func readLazy[T any](tx *Tx, v *TVar[T]) T {
	tx.maybeYield()
	if p := tx.rt.openProbe; p != nil {
		tx.openVar = v.token()
		p.OnOpen(tx)
	}
	if len(tx.wbuf) > 0 {
		if ent := findEntry(tx, v); ent != nil {
			return ent.val
		}
	}
	attempt := 0
	for {
		val, ver := settledLazy(tx, v, &attempt)
		if ver <= tx.rv {
			tx.logRead(v, ver)
			return val
		}
		// The variable committed past our snapshot: extend it or restart.
		if !tx.extendSnapshot(tx.rt.lazy, ver) {
			tx.selfAbort()
		}
		// rv now covers ver, but the variable may have moved again
		// between the settle and the extension — re-read.
	}
}

// settledLazy resolves v's committed (value, version), consulting the
// contention manager about active foreign committers (the lazy engine's
// read-write conflict point). A Committed-but-unfolded owner is waited
// out: the fold version (the committer's wv) is not derivable from the
// locator, and the committer folds immediately after its status CAS.
func settledLazy[T any](tx *Tx, v *TVar[T], attempt *int) (val T, ver uint64) {
	for {
		tx.checkAlive()
		loc := v.load()
		w := loc.owner
		if w == nil {
			return loc.oldVal, loc.version
		}
		if w == tx {
			// Unreachable in lazy mode — writes are buffered, never owned
			// mid-attempt — but tolerate it with the tentative value.
			return loc.newVal, loc.version
		}
		word, ok := ownerView(loc)
		if !ok {
			tx.casRetries++
			continue
		}
		switch StatusOf(word) {
		case Active:
			tx.resolve(w, word, ReadWrite, attempt)
		case Aborted:
			return loc.oldVal, loc.version
		default: // Committed, fold in flight
			tx.casRetries++
			runtime.Gosched()
		}
	}
}

// vread records one invisible read for later validation.
type vread struct {
	c   container
	ver uint64
}

// logRead appends one read to the attempt's log. Consecutive re-reads of
// the same variable dedupe for free; non-adjacent re-reads log again,
// which is harmless for validation (same version either way) and keeps
// the read path O(1) instead of scanning the log per read.
func (tx *Tx) logRead(c container, ver uint64) {
	if n := len(tx.vreads); n > 0 {
		if last := tx.vreads[n-1]; last.c == c && last.ver == ver {
			return
		}
	}
	tx.vreads = append(tx.vreads, vread{c: c, ver: ver})
	tx.rt.cm.Opened(tx)
}

// writeLazy buffers val as tx's tentative value of v. No shared state is
// touched: the variable learns of the write only at commit acquisition.
func writeLazy[T any](tx *Tx, v *TVar[T], val T) {
	tx.maybeYield()
	if p := tx.rt.openProbe; p != nil {
		tx.openVar = v.token()
		p.OnOpen(tx)
	}
	if ent := findEntry(tx, v); ent != nil {
		ent.val = val
		return
	}
	ent := entryPoolOf(tx, v).get()
	if ent == nil {
		ent = new(lazyEntry[T])
	}
	ent.v, ent.val, ent.loc = v, val, nil
	tx.wbuf = append(tx.wbuf, lazyWrite{key: v.token(), ent: ent})
	tx.rt.cm.Opened(tx)
}

// acquire CAS-locks the variable for the committing attempt and returns
// the settled version the lock snapshotted (commit floors wv above it).
// Active enemies are commit-time write-write conflicts resolved through
// the CM; terminated-but-unfolded enemies are folded into the
// acquisition CAS when their settled view is derivable (Aborted) and
// waited out when it is not (Committed — the fold carries the enemy's wv,
// which only the enemy knows). Unwinds via retrySignal if the attempt is
// aborted along the way; Atomic's cleanup then releases prior locks.
// The resolve escalation counter lives on the Tx (not a stack local)
// because a pointer passed through the lazyEnt interface would escape
// and put one allocation on every committed write attempt.
func (e *lazyEntry[T]) acquire(tx *Tx) uint64 {
	v := e.v
	pool := poolOf(tx, v)
	for {
		tx.checkAlive()
		loc := v.load()
		if w := loc.owner; w != nil {
			if w == tx {
				// Unreachable: each variable has at most one entry.
				return loc.version
			}
			word, ok := ownerView(loc)
			if !ok {
				tx.casRetries++
				continue
			}
			switch StatusOf(word) {
			case Active:
				tx.resolve(w, word, WriteWrite, &tx.acqAttempt)
				continue
			case Committed:
				tx.casRetries++
				runtime.Gosched()
				continue
			}
			// Aborted: fold it into our acquisition below.
		}
		next := pool.get(tx)
		if next == nil {
			next = new(locator[T])
		}
		next.owner, next.serial = tx, tx.serial()
		next.newVal = e.val
		if loc.owner == nil {
			next.oldVal, next.version = loc.oldVal, loc.version
			next.prev = loc
		} else {
			// Aborted enemy: its write never happened, so the settled view
			// is its (oldVal, version) regardless of fold state.
			next.oldVal, next.version = loc.oldVal, loc.version
			next.prev = nil
		}
		if !v.loc.CompareAndSwap(loc, next) {
			pool.put(next)
			tx.casRetries++
			continue
		}
		if loc.owner != nil {
			// Folded a dead enemy: loc and the quiescent prev it displaced
			// are both ours to retire.
			pool.retireFolded(tx, loc)
		}
		e.loc = next
		tx.acquires++
		if p := tx.rt.openProbe; p != nil {
			tx.openVar = v.token()
			p.OnAcquire(tx)
		}
		return next.version
	}
}

// writeBack folds the commit lock to a quiescent locator carrying the
// attempt's write version wv. Only runs after the status CAS committed;
// the CAS can lose only to a concurrent non-transactional Set, in which
// case the displaced state is the Set's to manage, not ours.
func (e *lazyEntry[T]) writeBack(tx *Tx, wv uint64) {
	loc := e.loc
	if loc == nil {
		return
	}
	e.loc = nil
	v := e.v
	pool := poolOf(tx, v)
	next := pool.get(tx)
	if next == nil {
		next = new(locator[T])
	}
	var zero T
	next.owner, next.serial = nil, 0
	next.oldVal, next.newVal = loc.newVal, zero
	next.version = wv
	next.prev = nil
	if v.loc.CompareAndSwap(loc, next) {
		pool.retireFolded(tx, loc)
		return
	}
	pool.put(next)
}

// release drops the commit lock after an aborted commit attempt,
// restoring the displaced quiescent locator (or an equivalent fresh
// one). No-op when the entry never acquired or write-back already
// folded. A lost CAS means an acquiring enemy already folded our
// aborted lock — the enemy retired it, exactly as in the eager path.
func (e *lazyEntry[T]) release(tx *Tx) {
	loc := e.loc
	if loc == nil {
		return
	}
	e.loc = nil
	v := e.v
	pool := poolOf(tx, v)
	var next *locator[T]
	private := true
	if loc.prev != nil {
		next = loc.prev
		private = false
	} else {
		if next = pool.get(tx); next == nil {
			next = new(locator[T])
		}
		var zero T
		next.owner, next.serial = nil, 0
		next.oldVal, next.newVal = loc.oldVal, zero
		next.version = loc.version
		next.prev = nil
	}
	if v.loc.CompareAndSwap(loc, next) {
		// prev (if any) was just reinstated: live, not retired.
		pool.retire(tx, loc)
		return
	}
	if private {
		pool.put(next)
	}
}

// recycle returns the entry box to the thread's typed entry pool,
// dropping any references held in T so recycling never extends user
// object lifetimes.
func (e *lazyEntry[T]) recycle(tx *Tx) {
	pool := entryPoolOf(tx, e.v)
	var zero T
	e.v, e.val, e.loc = nil, zero, nil
	pool.put(e)
}

// entryPool is one thread's recycler for lazyEntry[T] boxes. Entries are
// never published to other threads, so a plain free list with no grace
// period suffices (contrast locatorPool).
type entryPool[T any] struct {
	free *lazyEntry[T]
	n    int
}

// maxFreeEntries caps an entry free list; write sets larger than this
// fall back to allocation for the excess.
const maxFreeEntries = 64

func (p *entryPool[T]) get() *lazyEntry[T] {
	e := p.free
	if e != nil {
		p.free = e.next
		e.next = nil
		p.n--
	}
	return e
}

func (p *entryPool[T]) put(e *lazyEntry[T]) {
	if p.n >= maxFreeEntries {
		return
	}
	e.next = p.free
	p.free = e
	p.n++
}

// entryPoolOf returns the calling thread's entry pool for T, creating it
// on first use. Unlike poolOf it does not depend on the locator-pooling
// gate: entries are strictly thread-local, so recycling them is safe
// even on oversubscribed machines.
func entryPoolOf[T any](tx *Tx, v *TVar[T]) *entryPool[T] {
	id := v.pid.Load()
	if id == 0 {
		id = poolTypeID[T]()
		v.pid.Store(id) // idempotent: every racer stores the same id
	}
	th := tx.owner
	if int(id) >= len(th.entPools) {
		grown := make([]any, id+8)
		copy(grown, th.entPools)
		th.entPools = grown
	}
	if th.entPools[id] == nil {
		th.entPools[id] = &entryPool[T]{}
	}
	return th.entPools[id].(*entryPool[T])
}
