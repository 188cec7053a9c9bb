package stm

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Per-thread locator recycling (ISSUE 5). Every acquiring Write used to
// allocate a locator and every committed release allocated the folded
// quiescent one, so write-heavy workloads were GC-bound. Instead,
// displaced locators are retired (epoch.go) into per-thread batches and
// recycled through a per-thread free list once grace passes. The committed
// write path (acquire → commit → release) then allocates nothing in steady
// state.
//
// A retired locator is not written until grace has passed: a thread that
// loaded it from the variable before the displacing CAS may still be
// reading any of its fields (an aborted owner's release reads prev of a
// locator an enemy has already folded), so the batches hold pointers in
// arrays of their own and only the free list — past grace, or never
// published — links through the dead prev field.
//
// All state in a locatorPool is owner-thread-only: retires are performed
// by the thread whose CAS displaced the locator, gets by the thread
// building its next locator, so no atomics and no locks are needed. The
// lists are typed (locatorPool[T]); a thread reaches the pool for T
// through a small per-thread slice indexed by a global type id that each
// TVar caches on first pooled operation, so the hot path pays one plain
// slice index and one interface assertion — no map, no reflection.
//
// Lifecycle of one locator: allocated (pool miss) → published by a CAS →
// displaced by a later CAS (the winner retires it) → sits in the open
// retire batch until the batch seals at retireBatchSize → waits for grace
// → reclaimed onto the free list (fields poisoned: values zeroed, version
// set to poisonVersion, so a reader that somehow still held it returns
// impossible data instead of plausible stale data — the recycle stress
// test churns on exactly that) → popped by a later Write/Modify/release
// and fully re-initialized before its next publish.
//
// Liveness/bounds: sealing a batch ticks the global epoch, so pins taken
// after the seal carry younger epochs and the batch becomes reclaimable
// about one attempt later. If grace never comes (a stalled pin), the
// sealed ring fills and the oldest batch is dropped to the GC — memory
// stays bounded and the runtime degrades to the old allocate-and-leak
// behavior instead of stalling.

const (
	// retireBatchSize is how many retired locators seal into one batch.
	// Smaller batches reclaim sooner; larger ones amortize the grace scan
	// (one scan of M+extPinSlots slot words per batch) further.
	retireBatchSize = 32
	// maxSealedBatches bounds the per-pool ring of batches awaiting
	// grace. With seals ticking the epoch, two pending batches already
	// cover the steady state; the slack absorbs stalled pins.
	maxSealedBatches = 8
	// maxFreeLocators caps the free list so a thread that mostly retires
	// (its peers allocate, it displaces) does not hoard unboundedly.
	maxFreeLocators = 4 * retireBatchSize
	// poisonVersion is written into reclaimed locators' version fields. A
	// correct runtime never reads a reclaimed locator, so the sentinel
	// surfaces reclamation bugs as impossible versions rather than
	// plausible stale values.
	poisonVersion = 1<<63 - 1
)

// sealedBatch is one full retire batch awaiting grace: locators unlinked
// no later than epoch tag.
type sealedBatch[T any] struct {
	locs [retireBatchSize]*locator[T]
	tag  uint64
}

// locatorPool is one thread's recycler for locator[T]. Owner-thread-only.
type locatorPool[T any] struct {
	th *Thread

	// free is the ready-to-reuse list, linked through prev: everything on
	// it is past grace or was never published.
	free    *locator[T]
	freeLen int

	// cur is the open retire batch; it seals into the ring at
	// retireBatchSize.
	cur    [retireBatchSize]*locator[T]
	curLen int

	// sealed is a ring of batches awaiting grace: head is the oldest,
	// nSealed the occupancy.
	sealed  [maxSealedBatches]sealedBatch[T]
	head    int
	nSealed int
}

// get pops a recycled locator, reclaiming a sealed batch first if the
// free list ran dry. It returns nil on a pool miss — the caller
// allocates. The returned locator's fields are poison; the caller must
// initialize every field before publishing.
func (p *locatorPool[T]) get() *locator[T] {
	if p == nil { // pooling disabled (see New)
		return nil
	}
	if p.free == nil {
		p.reclaim()
	}
	if l := p.free; l != nil {
		p.free = l.prev
		p.freeLen--
		return l
	}
	return nil
}

// put returns a locator that was popped but never published (its CAS
// lost) straight to the free list; no grace period is needed because no
// other thread ever saw the pointer.
func (p *locatorPool[T]) put(l *locator[T]) {
	if p == nil {
		return
	}
	l.prev = p.free
	p.free = l
	p.freeLen++
}

// retire adds a displaced locator to the open batch. The caller must be
// the thread whose CAS unlinked l from its variable. l itself is left
// untouched: stale holders may read it until grace passes.
func (p *locatorPool[T]) retire(l *locator[T]) {
	if p == nil { // pooling disabled: the GC reclaims l
		return
	}
	p.cur[p.curLen] = l
	p.curLen++
	p.th.retiredLocs.Add(1)
	if p.curLen == retireBatchSize {
		p.seal()
	}
}

// retireFolded retires an owned locator a CAS displaced together with the
// quiescent locator its acquisition had displaced in turn, if any: once the
// owner's write is folded, nothing can reinstate that one either.
func (p *locatorPool[T]) retireFolded(l *locator[T]) {
	p.retire(l)
	if l.prev != nil {
		p.retire(l.prev)
	}
}

// seal closes the full open batch: tag it with the current epoch, push it
// onto the ring (dropping the oldest batch to the GC if the ring is full),
// tick the epoch so younger pins unblock the batch, and opportunistically
// reclaim whatever is already past grace.
func (p *locatorPool[T]) seal() {
	if p.nSealed == maxSealedBatches {
		// Grace has stalled (a pinned thread is asleep in a wait or in
		// a probe). Drop the oldest batch to the GC: safe — dropping
		// only forgoes recycling — and it bounds pool memory.
		p.popSealed()
	}
	p.sealed[(p.head+p.nSealed)%maxSealedBatches] = sealedBatch[T]{
		locs: p.cur, tag: poolEpoch.v.Load(),
	}
	p.nSealed++
	p.curLen = 0
	tryAdvanceEpoch()
	p.reclaim()
}

// popSealed removes the oldest sealed batch from the ring, clearing the
// slot so the ring holds no reference to what was in it.
func (p *locatorPool[T]) popSealed() {
	p.sealed[p.head] = sealedBatch[T]{}
	p.head = (p.head + 1) % maxSealedBatches
	p.nSealed--
	p.th.retiredLocs.Add(-retireBatchSize)
}

// reclaim moves sealed batches that passed their grace period onto the
// free list, poisoning each locator on the way. Batches age in seal
// order, so it stops at the first one still blocked.
func (p *locatorPool[T]) reclaim() {
	if p.nSealed == 0 {
		return
	}
	for p.nSealed > 0 {
		b := &p.sealed[p.head]
		if p.freeLen >= maxFreeLocators {
			// Hoarding: this thread displaces more than it allocates.
			// Forget the batch instead of growing the free list.
			p.popSealed()
			continue
		}
		if !gracePassed(p.th.rt, b.tag) {
			return
		}
		var zero T
		for _, l := range b.locs {
			// Poison: no correct accessor can reach l anymore, so make
			// stale data impossible to mistake for real data, and drop
			// references held in T values so recycling never extends
			// user-object lifetimes.
			l.owner, l.serial = nil, 0
			l.oldVal, l.newVal = zero, zero
			l.version = poisonVersion
			l.prev = p.free
			p.free = l
		}
		p.freeLen += retireBatchSize
		p.popSealed()
	}
}

// pending reports how many retired locators await reclamation (open batch
// plus sealed ring). Test hook.
func (p *locatorPool[T]) pending() int {
	return p.curLen + p.nSealed*retireBatchSize
}

// Type registry: each locator element type gets a small positive id, and
// every TVar caches its type's id so the per-operation lookup is one
// atomic load. Ids index the per-thread pool slice.
var (
	poolTypeIDs  sync.Map // reflect.Type -> int32
	poolTypeNext atomic.Int32
)

// poolTypeID returns the stable id for locator[T], assigning one on first
// use of the type anywhere in the process.
func poolTypeID[T any]() int32 {
	key := reflect.TypeFor[*locator[T]]()
	if id, ok := poolTypeIDs.Load(key); ok {
		return id.(int32)
	}
	id, _ := poolTypeIDs.LoadOrStore(key, poolTypeNext.Add(1))
	return id.(int32)
}

// poolOf returns the calling thread's locator pool for v's element type,
// creating it on first use, or nil when the runtime runs with pooling
// disabled (every pool method tolerates a nil receiver by falling back to
// plain allocate-and-GC). Hot path: one atomic load (the TVar's cached
// type id), one slice index, one interface assertion.
func poolOf[T any](tx *Tx, v *TVar[T]) *locatorPool[T] {
	if !tx.poolOn {
		return nil
	}
	id := v.pid.Load()
	if id == 0 {
		id = poolTypeID[T]()
		v.pid.Store(id) // idempotent: every racer stores the same id
	}
	th := tx.owner
	if int(id) >= len(th.pools) {
		grown := make([]any, id+8)
		copy(grown, th.pools)
		th.pools = grown
	}
	if th.pools[id] == nil {
		th.pools[id] = &locatorPool[T]{th: th}
	}
	return th.pools[id].(*locatorPool[T])
}
