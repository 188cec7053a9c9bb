package txbtree

import (
	"runtime"
	"slices"

	"wincm/internal/stm"
)

// lockRec is one key-level write lock: a committing attempt's claim on key
// for exactly its validation-to-post-apply window. A record sits in the
// list of the leaf whose fence covers its key, whether or not the key is
// present, and moves right with the key when that leaf splits. It is
// linked, unlinked, moved and read only under that leaf's latch, so it is
// plain memory that nobody reaches outside the latch, and each txState
// reuses one slab of records across its attempts: acquiring a lock
// allocates nothing.
//
// Liveness of a record is judged by its owner's live status word, not by a
// flag: the record captures the owner's packed (serial, status) word at
// acquisition, and a serial mismatch against the owner's current word
// proves the owning attempt has terminated — the record is dead however
// far the owner's release has gotten.
type lockRec struct {
	key   int
	owner *stm.Tx
	word  uint64
	next  *lockRec
}

// blocker is a live foreign record as seen under a latch, copied out so the
// latch can drop before the conflict is resolved.
type blocker struct {
	owner *stm.Tx
	word  uint64
	st    stm.Status
}

// holder returns the first live record in the latched leaf nd that is not
// tx's and whose key lies in [lo, hi] (inclusive, so a point probe of any
// int is [key, key]) and, when run is longer than one write, is the key of
// one of run's sorted writes.
func (nd *node[V]) holder(tx *stm.Tx, lo, hi int, run []writeEnt[V]) (blocker, bool) {
	for r := nd.locks.Load(); r != nil; r = r.next {
		if r.key < lo || r.key > hi || r.owner == tx {
			continue
		}
		if len(run) > 1 {
			if _, ok := slices.BinarySearchFunc(run, r.key, writeEnt[V].atKey); !ok {
				continue
			}
		}
		w := r.owner.StatusWord()
		if st := stm.StatusOf(w); stm.SerialOf(w) == stm.SerialOf(r.word) && st != stm.Aborted {
			return blocker{r.owner, r.word, st}, true
		}
	}
	return blocker{}, false
}

// link pushes r onto the latched leaf's list.
func (nd *node[V]) link(r *lockRec) {
	r.next = nd.locks.Load()
	nd.locks.Store(r)
}

// release removes tx's records of keys in [lo, hi] from the latched leaf's
// list in one pass.
func (nd *node[V]) release(tx *stm.Tx, lo, hi int) {
	head := nd.locks.Load()
	var prev *lockRec
	for r := head; r != nil; r = r.next {
		switch {
		case r.owner != tx || r.key < lo || r.key > hi:
			prev = r
		case prev == nil:
			head = r.next
		default:
			prev.next = r.next
		}
	}
	nd.locks.Store(head)
}

// wait resolves one blocker the caller met under a latch it has since
// dropped: an active owner goes to the contention manager as kind
// (ReadWrite from a reader's vantage point — semantic reads are invisible,
// so WriteRead never arises — WriteWrite when both sides want to commit the
// key), a committed-but-unapplied one is drained with a spin (its apply is
// a few latched stores away) that stays responsive to our own remote abort.
// attempt counts the resolutions of one blocked operation.
func (st *txState[V]) wait(b blocker, kind stm.Kind, attempt *int) {
	if b.st == stm.Active {
		st.tree.statSem.Add(1)
		st.tx.ResolveConflict(b.owner, b.word, kind, attempt)
		return
	}
	if st.tx.Status() != stm.Active {
		st.tx.RetryNow()
	}
	runtime.Gosched()
}

// home latches key's home leaf, starting from nd (a leaf that covered key
// once), and returns it once no live foreign record of key sits there;
// every holder met on the way is resolved as a ReadWrite conflict. This one
// latched visit is a reader's probe, a writer's own read, and the recheck
// of a read the attempt holds no lock for.
func (st *txState[V]) home(nd *node[V], key int) *node[V] {
	attempt := 0
	for {
		nd = nd.latch(key)
		b, held := nd.holder(st.tx, key, key, nil)
		if !held {
			return nd
		}
		nd.mu.Unlock()
		st.wait(b, stm.ReadWrite, &attempt)
	}
}

// sweep drains every live foreign record of a key in [e.lo, e.hi) from a
// range read's logged leaf: the phantom guard for range predicates. A
// writer's pending insert of a key the scan never saw is visible only as
// its record, which sits in the leaf that covers the key — one of the
// logged leaves unless that leaf has split since, and then its version
// check fails anyway. The head word is read without the latch, so a leaf
// that holds no records costs one load.
func (st *txState[V]) sweep(e *readEnt[V]) {
	nd, attempt := e.leaf, 0
	for nd.locks.Load() != nil {
		nd.mu.Lock()
		b, held := nd.holder(st.tx, e.lo, e.hi-1, nil)
		nd.mu.Unlock()
		if !held {
			return
		}
		st.wait(b, stm.WriteWrite, &attempt)
	}
}
