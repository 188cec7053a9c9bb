package txbtree

import (
	"cmp"
	"slices"

	"wincm/internal/stm"
)

// readEnt is one semantic read-set entry. Item reads record the key's
// binding at read time — its home leaf, that leaf's version, the slot's
// version, and presence; range reads record a visited leaf, its version,
// and the predicate bounds.
type readEnt[V any] struct {
	key     int
	lo, hi  int // range entries only
	leaf    *node[V]
	leafVer uint64
	slotVer uint64
	present bool
	isRange bool
	// locked marks the read a write logged for its own key: the attempt
	// write-locks that key before it validates this entry.
	locked bool
}

// writeEnt is one buffered write: an upsert of (key, val) or a delete of
// key. The write set holds at most one entry per key (later operations
// overwrite earlier ones). leaf is the key's home when the write's own read
// ran, which is where Validate's acquire starts; from then on it is the
// leaf the lock record was linked in, where applyOp and release start.
// Scan's merge buffer leaves it nil.
type writeEnt[V any] struct {
	key  int
	val  V
	del  bool
	leaf *node[V]
}

func (a writeEnt[V]) byKey(b writeEnt[V]) int { return cmp.Compare(a.key, b.key) }

// txState is one thread's per-attempt transaction state against one
// tree: the semantic read and write sets, the lock records held from
// validation on, and reusable traversal scratch. It is the tree's
// stm.SemanticOps implementation; enter registers it with each new
// attempt. Owner-thread-only, and it ends in a full cache line of padding,
// so two threads' enter and Finalize writes never share a line.
type txState[V any] struct {
	tree *Tree[V]
	tx   *stm.Tx
	// word is the attempt's packed status word at registration; a
	// mismatch against the live word marks a new attempt and resets the
	// state (attempt serials strictly advance).
	word   uint64
	reads  []readEnt[V]
	writes []writeEnt[V]
	// recs is the lock-record slab: recs[i] locks writes[i] once Validate
	// has sorted the writes, and the first held of them are linked into
	// leaves. It only grows while nothing is linked.
	recs    []lockRec
	held    int
	path    []*inner[V]
	scratch []writeEnt[V] // range-scan merge buffer
	_       [64]byte
}

var _ stm.SemanticOps = (*txState[int])(nil)

// enter fetches the calling thread's state, resetting and re-registering
// it on the first operation of each attempt and incrementally
// revalidating the read set on subsequent ones (the opacity guard: a
// stale read is discovered at the next tree operation, not at commit,
// so user code never computes on two commit orders for long).
func (t *Tree[V]) enter(tx *stm.Tx) *txState[V] {
	tx.SemanticOpen()
	st := t.state(tx.D.ThreadID)
	if w := tx.StatusWord(); st.word != w {
		st.word = w
		st.tx = tx
		st.reads = st.reads[:0]
		st.writes = st.writes[:0]
		tx.AddSemantic(st)
	} else {
		st.revalidate(tx)
	}
	return st
}

// minStates is the smallest capacity of a tree's states table.
const minStates = 8

// state returns the per-thread state for thread id, growing the table on
// demand. The fast path is one atomic load and an index.
func (t *Tree[V]) state(id int) *txState[V] {
	if s := *t.states.Load(); id < len(s) {
		return s[id]
	}
	t.growMu.Lock()
	defer t.growMu.Unlock()
	cur := *t.states.Load()
	if id < len(cur) {
		return cur[id]
	}
	// At least minStates slots, 64 B: a line-aligned size class, so the
	// table every enter reads shares its line with no thread's writes.
	grown := make([]*txState[V], id+1, max(id+1, minStates))
	copy(grown, cur)
	for i := len(cur); i <= id; i++ {
		grown[i] = &txState[V]{tree: t}
	}
	t.states.Store(&grown)
	return grown[id]
}

// revalidate re-checks the logged reads against the live tree (leaf
// version fast path, key-level recheck slow path) and restarts the
// attempt if any read's binding truly changed.
func (st *txState[V]) revalidate(tx *stm.Tx) {
	for i := range st.reads {
		e := &st.reads[i]
		if e.leaf.ver.Load() == e.leafVer {
			continue
		}
		if e.isRange || !st.recheck(e, false) {
			st.tree.statSem.Add(1)
			tx.RetryNow()
		}
		// Leaf churned but the key's binding held — a false conflict a
		// node-granularity structure would have aborted on. The recheck
		// promoted the entry, so commit-time validation fast-paths.
		st.tree.statFalse.Add(1)
	}
}

// bufGet looks key up in the private write set.
func (st *txState[V]) bufGet(key int) (val V, del, found bool) {
	for i := range st.writes {
		if st.writes[i].key == key {
			return st.writes[i].val, st.writes[i].del, true
		}
	}
	return
}

// write buffers an upsert or delete of key, overwriting any earlier
// buffered operation on it, and reports whether the key was present before.
// The first write of a key reads it (the logged read is what makes the
// reported presence part of the commit's validation) and keeps the leaf
// that read found as the apply hint.
func (st *txState[V]) write(key int, val V, del bool) (present bool) {
	for i := range st.writes {
		if w := &st.writes[i]; w.key == key {
			present = !w.del
			w.val, w.del = val, del
			return present
		}
	}
	_, present = st.read(key)
	e := &st.reads[len(st.reads)-1]
	e.locked = true
	st.writes = append(st.writes, writeEnt[V]{key: key, val: val, del: del, leaf: e.leaf})
	return present
}

// read performs the logged read of key in one latched visit of its home
// leaf: drain in-flight writers of the key there, read its binding — the
// leaf, its version, the slot's value, version and presence — and log the
// semantic read entry. Allocation-free once the read set is warm.
func (st *txState[V]) read(key int) (val V, present bool) {
	nd := st.home(st.tree.leafOf(key, nil), key, stm.ReadWrite)
	e := readEnt[V]{key: key, leaf: nd, leafVer: nd.ver.Load()}
	if i, ok := nd.search(key); ok {
		val, e.slotVer, e.present = nd.vals[i], nd.slotV[i], true
	}
	nd.mu.Unlock()
	st.reads = append(st.reads, e)
	return val, e.present
}

// Get returns key's value inside tx, honoring the transaction's own
// buffered writes. The steady-state path allocates nothing.
func (t *Tree[V]) Get(tx *stm.Tx, key int) (V, bool) {
	st := t.enter(tx)
	if v, del, ok := st.bufGet(key); ok {
		return v, !del
	}
	return st.read(key)
}

// Contains reports whether key is present inside tx.
func (t *Tree[V]) Contains(tx *stm.Tx, key int) bool {
	_, ok := t.Get(tx, key)
	return ok
}

// Insert upserts (key, val) inside tx, reporting whether the key was
// absent. The write is buffered — the physical tree is untouched until
// the attempt commits.
func (t *Tree[V]) Insert(tx *stm.Tx, key int, val V) bool {
	return !t.enter(tx).write(key, val, false)
}

// Delete removes key inside tx, reporting whether it was present.
func (t *Tree[V]) Delete(tx *stm.Tx, key int) bool {
	var zero V
	return t.enter(tx).write(key, zero, true)
}

// Scan calls fn for each (key, value) with lo ≤ key < hi, in ascending
// key order, honoring the transaction's buffered writes. It returns
// early if fn returns false. The range predicate is protected against
// phantoms: each visited leaf is logged with its version (strictly
// validated at commit) and the commit-time sweep of those leaves' lock
// records catches in-flight inserts of unseen keys.
func (t *Tree[V]) Scan(tx *stm.Tx, lo, hi int, fn func(key int, val V) bool) {
	if hi <= lo {
		return
	}
	st := t.enter(tx)
	st.scratch = st.scratch[:0]
	nd := t.leafOf(lo, nil).latch(lo)
	for {
		ndVer := nd.ver.Load()
		for i := 0; i < nd.n; i++ {
			if k := nd.keys[i]; k >= lo && k < hi {
				st.scratch = append(st.scratch, writeEnt[V]{key: k, val: nd.vals[i]})
			}
		}
		st.reads = append(st.reads, readEnt[V]{
			lo: lo, hi: hi, leaf: nd, leafVer: ndVer, isRange: true,
		})
		if !nd.hasHi || nd.hi >= hi {
			nd.mu.Unlock()
			break
		}
		next := nd.right
		nd.mu.Unlock()
		nd = next
		nd.mu.Lock()
	}
	// Overlay the private write set: upserts add or replace, deletes
	// drop, then emit in key order.
	for i := range st.writes {
		w := &st.writes[i]
		if w.key < lo || w.key >= hi {
			continue
		}
		found := false
		for j := range st.scratch {
			if st.scratch[j].key == w.key {
				st.scratch[j] = *w
				found = true
				break
			}
		}
		if !found && !w.del {
			st.scratch = append(st.scratch, *w)
		}
	}
	slices.SortFunc(st.scratch, writeEnt[V].byKey)
	for i := range st.scratch {
		if st.scratch[i].del {
			continue
		}
		if !fn(st.scratch[i].key, st.scratch[i].val) {
			return
		}
	}
}

// Validate implements stm.SemanticOps: acquire the key-level write locks
// in sorted key order, then check every logged read while the locks pin
// the write set — lock-then-validate, as in TL2: once validation passes, no
// conflicting commit can slip between it and the status CAS without
// either hitting our locks or bumping a leaf version we checked.
func (st *txState[V]) Validate(tx *stm.Tx) bool {
	if len(st.writes) > 1 {
		slices.SortFunc(st.writes, writeEnt[V].byKey)
	}
	if len(st.recs) < len(st.writes) {
		st.recs = make([]lockRec, len(st.writes))
	}
	for i := range st.writes {
		// One latched visit from the leaf the write's own read found: drain
		// foreign holders of the key, then link our record there.
		w, r := &st.writes[i], &st.recs[i]
		nd := st.home(w.leaf, w.key, stm.WriteWrite)
		r.key, r.owner, r.word = w.key, tx, st.word
		nd.link(r)
		nd.mu.Unlock()
		w.leaf, st.held = nd, i+1
	}
	for i := range st.reads {
		e := &st.reads[i]
		if e.isRange {
			st.sweep(e)
			if e.leaf.ver.Load() != e.leafVer {
				st.tree.statSem.Add(1)
				return false
			}
			continue
		}
		// A locked entry's key is one we hold the lock on: acquire drained
		// every foreign holder under the leaf latch before it linked our
		// record, and none can link past it, so only an unlocked read
		// probes. It skips the latched probe when its leaf holds no records
		// and has not changed; the head word is read first because a record
		// leaves a leaf only after its write has bumped the version
		// (applyOp).
		probe := !e.locked && e.leaf.locks.Load() != nil
		moved := e.leaf.ver.Load() != e.leafVer
		if !probe && !moved {
			continue
		}
		if !st.recheck(e, !e.locked) {
			st.tree.statSem.Add(1)
			return false
		}
		if moved {
			// The leaf changed under the read but the key's binding did
			// not: the abort a node-granularity conflict set would have
			// taken.
			st.tree.statFalse.Add(1)
		}
	}
	return true
}

// Finalize implements stm.SemanticOps: apply the buffered writes to the
// physical tree if the attempt committed (splits and root growth happen
// here, off every conflict set), releasing each lock record under the
// apply's latch; an aborted attempt releases the records it holds, each
// from the leaf it was linked in moving right. Then reset.
func (st *txState[V]) Finalize(tx *stm.Tx, committed bool) {
	for i := range st.writes[:st.held] {
		w, r := &st.writes[i], &st.recs[i]
		if committed {
			st.tree.applyOp(st, w, r)
			continue
		}
		nd := w.leaf.latch(w.key)
		nd.unlink(r)
		nd.mu.Unlock()
	}
	st.held = 0
	st.reads = st.reads[:0]
	st.writes = st.writes[:0]
}
