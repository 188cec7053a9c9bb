// Package txbtree implements a transactional B+ tree with key-level
// (semantic) conflict detection over the STM's SemanticOps seam.
//
// The physical structure is a B-link tree (Lehman–Yao): every node carries
// a right-sibling pointer and an upper fence key, splits move the upper
// part of a node into a fresh right sibling, and a traversal that lands on
// a node whose fence excludes its key simply chases right links. Keys only
// ever move rightward and nodes are never freed or merged, so a traversal
// holding nothing across hops can never be stranded — the invariant the
// whole design leans on. None of this state lives in TVars and none of it
// ever enters an STM conflict set.
//
// Node access protocol:
//
//   - Inner nodes are read without any latch. An inner node's routing state
//     (keys, children, fence, right link) is an immutable body published
//     through one atomic pointer; a reader loads the body, routes through
//     it and stores nothing. Only insertParent and growRoot write: under
//     the node's mutex they copy the body, modify the copy and publish it.
//     At an inner split the new sibling's body is published before the
//     donor's new body, which is the first thing that links to the sibling,
//     so whoever can reach a node can load its body.
//   - What a reader may observe is a stale body: one that lacks a
//     separator, or still covers keys since moved to a right sibling. It
//     routes to a node that covered the key when the body was published;
//     the fence check at the next level moves right from there. That is the
//     argument that lets any B-link descent drop the parent before it looks
//     at the child — it does not care whether the parent was ever latched.
//   - Leaves keep a Mutex held for one node visit: values are a generic V,
//     so an optimistic leaf read would be a data race. Not an RWMutex: its
//     readers park at once behind a pending writer where a Mutex spins
//     first, which on a packed hot leaf cost kv-hot-write 31% of its
//     throughput. Only the latch holder changes a leaf; ver is atomic so
//     validation fast paths can poll it without the latch.
//   - The same argument covers a remembered leaf (a read entry's, or a
//     buffered write's apply hint): the key lived there once, so its home
//     is that leaf or one to its right, however many splits intervened.
//
// Transactions interact with the tree through a semantic read/write set
// instead (txn.go): reads log (key, leaf, leaf-version, slot-version,
// presence), writes buffer (key, value, delete) privately, and commit-time
// validation re-checks the reads — per-leaf version fast path, key-level
// re-locate slow path — while key-level write locks are held: records
// (lock.go) in the list of the leaf that covers each written key.
// Conflicts discovered there route through the installed contention
// manager exactly like TVar ownership conflicts, so all managers run
// unchanged. Structural modifications — leaf and inner splits,
// root growth — happen while applying the buffered writes after the commit
// point; they are non-transactional side effects that abort nobody.
package txbtree

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"wincm/internal/stm"
)

// maxKeys is the per-node fan-out. 32 keeps a leaf's key array on two
// cache lines while making splits rare; lookups scan linearly, which at
// this width beats a branchy binary search.
const maxKeys = 32

// span is what a leaf and an inner body share: the sorted keys, the upper
// fence and the B-link sibling. The node covers keys < hi when hasHi is
// set; the rightmost node of a level has no fence. right covers [hi, …).
// The fence sits before the keys so that the fence check and the start of
// the key scan, which every visit makes, share a cache line.
type span[V any] struct {
	n     int
	hasHi bool
	hi    int
	right *node[V]
	keys  [maxKeys]int
}

// search returns the index of key and true, or the insertion point and
// false.
func (s *span[V]) search(key int) (int, bool) {
	for i := 0; i < s.n; i++ {
		if s.keys[i] >= key {
			return i, s.keys[i] == key
		}
	}
	return s.n, false
}

// past reports whether key lies beyond the fence, i.e. in a right sibling.
func (s *span[V]) past(key int) bool { return s.hasHi && key >= s.hi }

// routing is an inner node's body, immutable once published: kids[i]
// covers keys < keys[i], kids[n] the rest of the node's range.
type routing[V any] struct {
	span[V]
	kids [maxKeys + 1]*node[V]
}

// childFor returns the child covering key; the caller has chased right
// links, so key is inside the fence.
func (r *routing[V]) childFor(key int) *node[V] {
	for i := 0; i < r.n; i++ {
		if key < r.keys[i] {
			return r.kids[i]
		}
	}
	return r.kids[r.n]
}

// put inserts separator sep at index i with kid as its right child. Only
// ever called on a body not yet published.
func (r *routing[V]) put(i, sep int, kid *node[V]) {
	copy(r.keys[i+1:r.n+1], r.keys[i:r.n])
	copy(r.kids[i+2:r.n+2], r.kids[i+1:r.n+1])
	r.keys[i], r.kids[i+1] = sep, kid
	r.n++
}

// node is one B-link node. A node is created as either a leaf (level 0)
// or an inner node (level > 0) and never changes role. An inner node uses
// only level, route and — among writers — mu; a leaf uses everything but
// route, with every field except ver, level and the locks head word
// guarded by mu.
type node[V any] struct {
	mu sync.Mutex
	// ver counts mutations of a leaf's key set and payload. It is bumped
	// under the latch on every change (including the donor's shrink
	// at a split) and seeded from the donor at a split, so the version a
	// key's home leaf carries is monotone along the key's rightward
	// movement chain — the property slot validation depends on.
	ver atomic.Uint64
	// locks heads the leaf's list of key lock records (lock.go). The list
	// changes only under the latch; the head is atomic so that a validator
	// can see without the latch that a leaf holds no records at all.
	locks atomic.Pointer[lockRec]
	// level is 0 for leaves and parent level = child level + 1. It is
	// immutable; descents stop by it.
	level int
	// route is an inner node's current body; nil on leaves.
	route atomic.Pointer[routing[V]]
	span[V]
	// Leaf payload: vals[i] and slotV[i] ride with keys[i]. slotV is the
	// node ver at the slot's last mutation — a comparable proxy for "this
	// key's binding is unchanged" that survives the slot moving to a
	// sibling at a split.
	vals  [maxKeys]V
	slotV [maxKeys]uint64
}

// newInner returns an inner node at level whose first body is r.
func newInner[V any](level int, r *routing[V]) *node[V] {
	nd := &node[V]{level: level}
	nd.route.Store(r)
	return nd
}

// put inserts (key, val) at slot i of a leaf and stamps the slot with the
// leaf's next version. Caller holds the latch (or the leaf is not yet
// reachable).
func (nd *node[V]) put(i, key int, val V) {
	copy(nd.keys[i+1:nd.n+1], nd.keys[i:nd.n])
	copy(nd.vals[i+1:nd.n+1], nd.vals[i:nd.n])
	copy(nd.slotV[i+1:nd.n+1], nd.slotV[i:nd.n])
	nd.keys[i], nd.vals[i] = key, val
	nd.n++
	nd.slotV[i] = nd.ver.Add(1)
}

// latch latches the leaf covering key, starting from a leaf that covered
// it once and moving right past every split since (keys only move right).
// At most one latch is held at a time.
func (nd *node[V]) latch(key int) *node[V] {
	nd.mu.Lock()
	for nd.past(key) {
		r := nd.right
		nd.mu.Unlock()
		nd = r
		nd.mu.Lock()
	}
	return nd
}

// Tree is a transactional B+ tree mapping int keys to V values. All
// transactional access goes through Get/Contains/Insert/Delete/Scan with
// an active stm.Tx; Keys and CheckInvariants are quiescent helpers. A
// Tree may be shared by every thread of one stm.Runtime; using it from
// two runtimes at once is not supported (per-thread state is indexed by
// the runtime's thread IDs).
type Tree[V any] struct {
	root atomic.Pointer[node[V]]
	// smoMu serializes root growth only — the one structural operation
	// that cannot be localized to a latched node. Never held together
	// with a node latch.
	smoMu sync.Mutex
	// states holds the per-thread transaction state, grown on demand
	// under growMu and read lock-free (state()).
	states atomic.Pointer[[]*txState[V]]
	growMu sync.Mutex
	// Structure-level stat counters, mirrored into the per-attempt
	// telemetry tallies; tests read these for exact per-run numbers.
	statSem, statSmo, statFalse atomic.Uint64
}

// New returns an empty tree.
func New[V any]() *Tree[V] {
	t := &Tree[V]{}
	t.root.Store(&node[V]{level: 0})
	empty := make([]*txState[V], 0)
	t.states.Store(&empty)
	return t
}

// Stats reports the tree's cumulative semantic-conflict, structural-op
// and false-conflict-avoided counts (exact; the per-attempt telemetry
// tallies mirror them modulo fold timing).
func (t *Tree[V]) Stats() (semanticConflicts, structuralOps, falseConflictsAvoided uint64) {
	return t.statSem.Load(), t.statSmo.Load(), t.statFalse.Load()
}

// descend walks from the root to a node at level that covers key or has a
// right sibling that does, and returns it. It takes no latch and stores to
// no node: each inner node is read through its published body, and a fence
// miss chases the body's right link. If path is non-nil every inner node
// passed through is appended to it, root first. The root must be at level
// or above.
func (t *Tree[V]) descend(key, level int, path *[]*node[V]) *node[V] {
	nd := t.root.Load()
	for nd.level > level {
		r := nd.route.Load()
		for r.past(key) {
			nd = r.right
			r = nd.route.Load()
		}
		if path != nil {
			*path = append(*path, nd)
		}
		nd = r.childFor(key)
	}
	return nd
}

// leafFor returns the leaf covering key, latched.
func (t *Tree[V]) leafFor(key int) *node[V] {
	return t.descend(key, 0, nil).latch(key)
}

// recheck re-establishes a point read's validity after its fast-path leaf
// version moved: re-locate the key from the logged leaf via right links —
// draining foreign lock records of the key first when probe is set — and
// compare presence and slot version. On success the entry is promoted to
// the key's current home so subsequent fast paths hit again. Returns false
// if the key's binding truly changed.
func (st *txState[V]) recheck(e *readEnt[V], probe bool) bool {
	var nd *node[V]
	if probe {
		nd = st.home(e.leaf, e.key, stm.ReadWrite)
	} else {
		nd = e.leaf.latch(e.key)
	}
	i, ok := nd.search(e.key)
	same := ok == e.present && (!ok || nd.slotV[i] == e.slotVer)
	if same {
		e.leaf = nd
		e.leafVer = nd.ver.Load()
	}
	nd.mu.Unlock()
	return same
}

// applyOp applies one committed buffered write to the physical tree:
// delete-in-place, update-in-place, insert, or insert-with-split. It runs
// after the owning attempt's commit point and releases the key's lock
// record r under the same latch, so no concurrent committer races it on
// the same key and no prober sees the key unlocked but unwritten. It starts
// at the leaf the lock was taken in and moves right, as recheck does; there
// is no descent unless the leaf splits. Structural work it triggers is
// counted but conflicts with nobody.
//
// The record leaves only after the write has bumped the leaf's version: a
// validator that reads the head word without the latch and finds the list
// empty must then find the version moved.
func (t *Tree[V]) applyOp(st *txState[V], w *writeEnt[V], r *lockRec) {
	key := w.key
	nd := w.leaf.latch(key)
	i, ok := nd.search(key)
	switch {
	case w.del:
		if ok {
			copy(nd.keys[i:], nd.keys[i+1:nd.n])
			copy(nd.vals[i:], nd.vals[i+1:nd.n])
			copy(nd.slotV[i:], nd.slotV[i+1:nd.n])
			nd.n--
			var zero V
			nd.vals[nd.n] = zero
			nd.ver.Add(1)
		}
	case ok:
		nd.vals[i] = w.val
		nd.slotV[i] = nd.ver.Add(1)
	case nd.n < maxKeys:
		nd.put(i, key, w.val)
	default:
		t.splitLeaf(st, nd, key, w.val, r)
		return
	}
	nd.unlink(r)
	nd.mu.Unlock()
}

// splitLeaf splits the full, latched leaf nd around the insertion of
// (key, val) and propagates the separator upward. This is the one descent
// on the write path: the parents of the separator's leaf, for insertParent
// to pop. The path may be stale by the time it is used; insertParent
// compensates with right moves.
func (t *Tree[V]) splitLeaf(st *txState[V], nd *node[V], key int, val V, r *lockRec) {
	sep, sibling := nd.split(key, val, r)
	st.countSMO()
	st.path = st.path[:0]
	t.descend(sep, 0, &st.path)
	t.insertParent(st, nd, sep, sibling)
}

// split splits the full, latched leaf nd, inserts (key, val) into the
// appropriate side, unlinks the key's lock record r (nil when there is
// none) and drops the latch, returning the separator and the new right
// sibling. The sibling is fully built and linked before the latch
// drops, so no traversal can observe a half-split leaf; the separator still
// has to reach the parent (insertParent).
//
// The cut is at the middle unless the key continues a sequential run — the
// leaf's last write was the slot just left of the key — and then at the
// key: the run keeps appending to a full leaf, and keys of another stream
// that it passed by move out of its way once instead of at every split.
func (nd *node[V]) split(key int, val V, r *lockRec) (sep int, s *node[V]) {
	cut := maxKeys / 2
	if i, _ := nd.search(key); i > 0 && nd.slotV[i-1] == nd.ver.Load() {
		cut = i
	}
	s = &node[V]{level: 0}
	s.n = copy(s.keys[:], nd.keys[cut:nd.n])
	copy(s.vals[:], nd.vals[cut:nd.n])
	copy(s.slotV[:], nd.slotV[cut:nd.n])
	s.hasHi, s.hi, s.right = nd.hasHi, nd.hi, nd.right
	// Seed the sibling's version from the donor: any slot version already
	// issued for a moved key stays below every version the sibling will
	// issue, keeping slot versions monotone per key.
	s.ver.Store(nd.ver.Load())
	sep = key // a cut past the last slot leaves the sibling only the key
	if cut < nd.n {
		sep = nd.keys[cut]
	}
	var zero V
	for i := cut; i < nd.n; i++ {
		nd.vals[i] = zero
	}
	nd.n = cut
	nd.hasHi, nd.hi, nd.right = true, sep, s
	// Insert the pending key while the donor is still latched — the
	// sibling is unreachable until the latch drops, so it needs no latch.
	// Both halves changed, so both versions move.
	target, other := nd, s
	if key >= sep {
		target, other = s, nd
	}
	i, _ := target.search(key)
	target.put(i, key, val)
	other.ver.Add(1)
	// Lock records follow their keys — those of keys ≥ sep move over — and
	// r leaves; only now that both versions moved (see applyOp).
	var kept *lockRec
	for rec := nd.locks.Load(); rec != nil; {
		next := rec.next
		switch {
		case rec == r:
		case rec.key >= sep:
			s.link(rec)
		default:
			rec.next, kept = kept, rec
		}
		rec = next
	}
	nd.locks.Store(kept)
	nd.mu.Unlock()
	return sep, s
}

// insertParent links a freshly split-off sibling into the split node's
// parent, splitting upward as needed. left is the node that split; sep is
// the promoted separator (the sibling's minimum key bound). Each parent is
// changed by publishing a modified copy of its body under its mutex.
func (t *Tree[V]) insertParent(st *txState[V], left *node[V], sep int, sibling *node[V]) {
	for {
		var p *node[V]
		if n := len(st.path); n > 0 {
			p = st.path[n-1]
			st.path = st.path[:n-1]
		} else if p = t.growRoot(st, left, sep, sibling); p == nil {
			return
		}
		p.mu.Lock()
		r := p.route.Load()
		for r.past(sep) {
			next := r.right
			p.mu.Unlock()
			p = next
			p.mu.Lock()
			r = p.route.Load()
		}
		i, _ := r.search(sep)
		if r.n < maxKeys {
			nr := *r
			nr.put(i, sep, sibling)
			p.route.Store(&nr)
			p.mu.Unlock()
			return
		}
		// Inner split: promote the middle key; p keeps [0,mid), the new
		// sibling takes (mid, n), and the pending (sep, child) lands in
		// whichever side covers it.
		mid := maxKeys / 2
		psep := r.keys[mid]
		keep, moved := new(routing[V]), new(routing[V])
		keep.n = copy(keep.keys[:], r.keys[:mid])
		copy(keep.kids[:], r.kids[:mid+1])
		moved.n = copy(moved.keys[:], r.keys[mid+1:r.n])
		copy(moved.kids[:], r.kids[mid+1:r.n+1])
		moved.hasHi, moved.hi, moved.right = r.hasHi, r.hi, r.right
		target := keep
		if sep >= psep {
			target = moved
		}
		i, _ = target.search(sep)
		target.put(i, sep, sibling)
		// Publish order: the sibling's body first, then the donor body
		// whose right link makes the sibling reachable.
		s := newInner(p.level, moved)
		keep.hasHi, keep.hi, keep.right = true, psep, s
		p.route.Store(keep)
		p.mu.Unlock()
		st.countSMO()
		left, sep, sibling = p, psep, s
	}
}

// growRoot handles the stack-exhausted case of insertParent: no node above
// left was on the descent's path. If left is still the root, a new root
// adopts the pair and the split is complete (returns nil). Otherwise the
// tree has grown, or is about to; descend from the current root to left's
// parent level and return that node as the insertion parent.
func (t *Tree[V]) growRoot(st *txState[V], left *node[V], sep int, sibling *node[V]) *node[V] {
	for {
		t.smoMu.Lock()
		root := t.root.Load()
		if root == left {
			r := &routing[V]{}
			r.n, r.keys[0] = 1, sep
			r.kids[0], r.kids[1] = left, sibling
			t.root.Store(newInner(left.level+1, r))
			t.smoMu.Unlock()
			st.countSMO()
			return nil
		}
		t.smoMu.Unlock()
		if root.level > left.level {
			return t.descend(sep, left.level+1, nil)
		}
		// left is a right sibling of a root that has split but not yet
		// grown the tree: its splitter is between dropping the root's
		// latch and the branch above. Let it run.
		runtime.Gosched()
	}
}

// leftmostLeaf returns the first leaf of the tree (quiescent helper).
func (t *Tree[V]) leftmostLeaf() *node[V] {
	return t.descend(math.MinInt, 0, nil)
}

// Keys returns a sorted snapshot of the key set, read non-transactionally;
// call it only while no transactions run (tests and verification).
func (t *Tree[V]) Keys() []int {
	var out []int
	for nd := t.leftmostLeaf(); nd != nil; {
		nd.mu.Lock()
		out = append(out, nd.keys[:nd.n]...)
		next := nd.right
		nd.mu.Unlock()
		nd = next
	}
	return out
}

// Len returns the number of keys, read non-transactionally (quiescent).
func (t *Tree[V]) Len() int {
	n := 0
	for nd := t.leftmostLeaf(); nd != nil; {
		nd.mu.Lock()
		n += nd.n
		next := nd.right
		nd.mu.Unlock()
		nd = next
	}
	return n
}

// CheckInvariants verifies the B-link structure quiescently: keys sorted
// and in-fence at every node, child levels consistent, sibling chains
// fence-connected, every inner separator equal to the low bound of its
// right child's key range, and every leaf's lock-record list in-fence and
// empty. The harness calls it after verification runs; it must only run
// while no transactions are active.
func (t *Tree[V]) CheckInvariants() error {
	root := t.root.Load()
	return t.checkNode(root, root.level, nil, false)
}

func (t *Tree[V]) checkNode(nd *node[V], level int, lo *int, hasLo bool) error {
	if nd.level != level {
		return fmt.Errorf("txbtree: node at level %d recorded level %d", level, nd.level)
	}
	sp, r := &nd.span, nd.route.Load()
	if level > 0 {
		if r == nil {
			return fmt.Errorf("txbtree: inner node at level %d has no body", level)
		}
		sp = &r.span
	}
	for i := 0; i < sp.n; i++ {
		if i > 0 && sp.keys[i-1] >= sp.keys[i] {
			return fmt.Errorf("txbtree: unsorted keys at level %d: %d !< %d", level, sp.keys[i-1], sp.keys[i])
		}
		if hasLo && sp.keys[i] < *lo {
			return fmt.Errorf("txbtree: key %d below low bound %d at level %d", sp.keys[i], *lo, level)
		}
		if sp.past(sp.keys[i]) {
			return fmt.Errorf("txbtree: key %d at/above fence %d at level %d", sp.keys[i], sp.hi, level)
		}
	}
	if level == 0 {
		for rec := nd.locks.Load(); rec != nil; rec = rec.next {
			if (hasLo && rec.key < *lo) || nd.past(rec.key) {
				return fmt.Errorf("txbtree: lock record of key %d outside its leaf's fence", rec.key)
			}
		}
		if rec := nd.locks.Load(); rec != nil {
			return fmt.Errorf("txbtree: lock record of key %d left in a quiescent tree", rec.key)
		}
		return nil
	}
	for i := 0; i <= r.n; i++ {
		child := r.kids[i]
		if child == nil {
			return fmt.Errorf("txbtree: nil child %d at level %d", i, level)
		}
		if child.level != level-1 {
			return fmt.Errorf("txbtree: child level %d under level %d", child.level, level)
		}
		clo, chasLo := lo, hasLo
		if i > 0 {
			k := r.keys[i-1]
			clo, chasLo = &k, true
		}
		if err := t.checkNode(child, level-1, clo, chasLo); err != nil {
			return err
		}
	}
	return nil
}
