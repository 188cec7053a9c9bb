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
//   - Leaves (node) and inner nodes (inner) are distinct types, and the root
//     is always an inner node: an empty tree is a level-1 root over one leaf.
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
//     It covers a thread's write finger too: a leaf's low bound never
//     changes, so a key at or above the one the thread last wrote is homed
//     in the leaf that write found or to its right. A write whose key is
//     also below the fence that write saw starts there instead of
//     descending.
//
// Transactions interact with the tree through a semantic read/write set
// instead (txn.go): reads log (key, leaf, leaf-version, slot-version,
// presence), writes buffer (key, value, delete) privately, and commit-time
// validation re-checks the reads — per-leaf version fast path, key-level
// re-locate slow path — while key-level write locks are held: records
// (lock.go) in the list of the leaf that covers each written key. Commit
// visits each leaf once per run of sorted writes it covers: one latch takes
// the run's locks, one applies its writes and releases them.
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
	"unsafe"
)

// maxKeys is the per-node fan-out. 34 keys are 272 B, a little over four
// cache lines, and make an int64 leaf fill its size class (see node) while
// keeping splits rare; lookups scan linearly, which at this width beats a
// branchy binary search.
const maxKeys = 34

// span is what a leaf and an inner body share: the sorted keys and the
// upper fence. The node covers keys < hi when hasHi is set; the rightmost
// node of a level has no fence, and its right link is nil. The fence sits
// before the keys so that the fence check and the start of the key scan,
// which every visit makes, share a cache line.
type span struct {
	n     int
	hasHi bool
	hi    int
	keys  [maxKeys]int
}

// search returns the index of key and true, or the insertion point and
// false.
func (s *span) search(key int) (int, bool) {
	for i := 0; i < s.n; i++ {
		if s.keys[i] >= key {
			return i, s.keys[i] == key
		}
	}
	return s.n, false
}

// seek is search for the write path: a key past the last slot, the append
// an ascending run makes, is answered without a scan.
func (s *span) seek(key int) (int, bool) {
	if s.n > 0 && key > s.keys[s.n-1] {
		return s.n, false
	}
	return s.search(key)
}

// past reports whether key lies beyond the fence, i.e. in a right sibling.
func (s *span) past(key int) bool { return s.hasHi && key >= s.hi }

// routing is an inner node's body, immutable once published: kids[i]
// covers keys < keys[i], kids[n] the rest of the node's range, and right
// covers [hi, …). A kid is an *inner[V] above level 1 and a *node[V] at
// level 1; it is read back only through innerKid and leafKid, each of
// which converts to the one type its level stores. last is the slot of the
// body's last put, which an inner split reads as a leaf split reads slotV.
type routing[V any] struct {
	span
	right *inner[V]
	last  int
	kids  [maxKeys + 1]unsafe.Pointer
}

// innerKid returns kid i of a body above level 1.
func (r *routing[V]) innerKid(i int) *inner[V] { return (*inner[V])(r.kids[i]) }

// leafKid returns kid i of a level-1 body.
func (r *routing[V]) leafKid(i int) *node[V] { return (*node[V])(r.kids[i]) }

// childFor returns the index of the kid covering key; the caller has
// chased right links, so key is inside the fence.
func (r *routing[V]) childFor(key int) int {
	for i := 0; i < r.n; i++ {
		if key < r.keys[i] {
			return i
		}
	}
	return r.n
}

// put inserts separator sep at index i with kid as its right child. Only
// ever called on a body not yet published.
func (r *routing[V]) put(i, sep int, kid unsafe.Pointer) {
	copy(r.keys[i+1:r.n+1], r.keys[i:r.n])
	copy(r.kids[i+2:r.n+2], r.kids[i+1:r.n+1])
	r.keys[i], r.kids[i+1], r.last = sep, kid, i
	r.n++
}

// inner is an inner node: a mutex for the writers of its body, its level
// (1 above the leaves, parent level = child level + 1; immutable, descents
// stop by it) and its current body. The padding gives the header a cache
// line that no other allocation shares.
type inner[V any] struct {
	mu    sync.Mutex
	level int
	route atomic.Pointer[routing[V]]
	_     [40]byte
}

// newInner returns an inner node at level whose first body is r.
func newInner[V any](level int, r *routing[V]) *inner[V] {
	p := &inner[V]{level: level}
	p.route.Store(r)
	return p
}

// node is a leaf. Every field except ver and the locks head word is guarded
// by mu. The latch, the version, the lock list, the right link and the
// fence share the first cache line and the keys start the second; for
// int64 values that is 880 B, and with the 8 B malloc header every
// pointerful object over 512 B carries, 888 B: the 896 B size class, which
// one key more would leave for 1,024 B.
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
	right *node[V]
	_     [8]byte
	span
	// Leaf payload: vals[i] and slotV[i] ride with keys[i]. slotV is the
	// node ver at the slot's last mutation — a comparable proxy for "this
	// key's binding is unchanged" that survives the slot moving to a
	// sibling at a split.
	vals  [maxKeys]V
	slotV [maxKeys]uint64
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
	root atomic.Pointer[inner[V]]
	// smoMu serializes root growth only — the one structural operation
	// that cannot be localized to a latched node. Never held together
	// with a node latch.
	smoMu sync.Mutex
	// states holds the per-thread transaction state, grown on demand
	// under growMu and read lock-free (state()).
	states atomic.Pointer[[]*txState[V]]
	growMu sync.Mutex
	// The tree's event counters, read by Stats: it is the only place
	// these events are counted.
	statSem, statSmo, statFalse atomic.Uint64
}

// New returns an empty tree: a level-1 root without keys over one leaf.
func New[V any]() *Tree[V] {
	t := &Tree[V]{}
	r := &routing[V]{}
	r.kids[0] = unsafe.Pointer(&node[V]{})
	t.root.Store(newInner(1, r))
	empty := make([]*txState[V], 0)
	t.states.Store(&empty)
	return t
}

// Stats reports the tree's cumulative counts of key-level conflicts (CM
// resolutions and failed semantic validations), structural modifications
// (splits, root growth) and false conflicts avoided (leaf-version misses
// the key-level recheck proved harmless).
func (t *Tree[V]) Stats() (semanticConflicts, structuralOps, falseConflictsAvoided uint64) {
	return t.statSem.Load(), t.statSmo.Load(), t.statFalse.Load()
}

// descend walks from the root to the inner node at level that covers key
// and returns it with its body. It takes no latch and stores to no node:
// each inner node is read through its published body, and a fence miss
// chases the body's right link. If path is non-nil every node it passes
// through or returns is appended to it, root first. The root must be at
// level or above.
func (t *Tree[V]) descend(key, level int, path *[]*inner[V]) (*inner[V], *routing[V]) {
	p := t.root.Load()
	for {
		r := p.route.Load()
		for r.past(key) {
			p = r.right
			r = p.route.Load()
		}
		if path != nil {
			*path = append(*path, p)
		}
		if p.level == level {
			return p, r
		}
		p = r.innerKid(r.childFor(key))
	}
}

// leafOf returns the leaf a descent to key ends at: the leaf covering key
// or one to its left. path is as for descend.
func (t *Tree[V]) leafOf(key int, path *[]*inner[V]) *node[V] {
	_, r := t.descend(key, 1, path)
	return r.leafKid(r.childFor(key))
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
		nd = st.home(e.leaf, e.key)
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

// applyRun applies the run of committed buffered writes from writes[i] that
// share writes[i]'s home leaf, in one latched visit: delete-in-place,
// update-in-place or insert. It runs after the owning attempt's commit
// point and releases the run's lock records under the same latch, in one
// pass, so no concurrent committer races it on the same keys and no prober
// sees a key unlocked but unwritten. It starts at the leaf the locks were
// taken in and moves right, as recheck does; there is no descent unless the
// leaf splits. It returns the run's end. Structural work it triggers is
// counted but conflicts with nobody.
//
// A record leaves only after its write has bumped the leaf's version: a
// validator that reads the head word without the latch and finds the list
// empty must then find the version moved. A write that finds the leaf full
// ends the run there: the records of the writes already applied leave, and
// splitLeaf inserts the write and releases its own record.
func (t *Tree[V]) applyRun(st *txState[V], i int) int {
	first := &st.writes[i]
	nd := first.leaf.latch(first.key)
	j := st.runEnd(nd, i, st.held)
	for k := i; k < j; k++ {
		w := &st.writes[k]
		at, ok := nd.seek(w.key)
		switch {
		case w.del:
			if ok {
				copy(nd.keys[at:], nd.keys[at+1:nd.n])
				copy(nd.vals[at:], nd.vals[at+1:nd.n])
				copy(nd.slotV[at:], nd.slotV[at+1:nd.n])
				nd.n--
				var zero V
				nd.vals[nd.n] = zero
				nd.ver.Add(1)
			}
		case ok:
			nd.vals[at] = w.val
			nd.slotV[at] = nd.ver.Add(1)
		case nd.n < maxKeys:
			nd.put(at, w.key, w.val)
		default:
			if k > i {
				nd.release(st.tx, first.key, st.writes[k-1].key)
			}
			t.splitLeaf(st, nd, w.key, w.val, &st.recs[k])
			return k + 1
		}
	}
	nd.release(st.tx, first.key, st.writes[j-1].key)
	nd.mu.Unlock()
	return j
}

// splitLeaf splits the full, latched leaf nd around the insertion of
// (key, val) and propagates the separator upward. This is the one descent
// on the write path: the parents of the separator's leaf, for insertParent
// to pop. The path may be stale by the time it is used; insertParent
// compensates with right moves.
func (t *Tree[V]) splitLeaf(st *txState[V], nd *node[V], key int, val V, r *lockRec) {
	sep, sibling := nd.split(key, val, r)
	t.statSmo.Add(1)
	st.path = st.path[:0]
	t.leafOf(sep, &st.path)
	t.insertParent(st, sep, unsafe.Pointer(sibling))
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
	s = &node[V]{}
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
	// r leaves; only now that both versions moved (see applyRun).
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

// insertParent links kid, a freshly split-off sibling, into its parent
// level with separator sep (kid's low bound), starting at the last node on
// st.path and splitting upward as needed. Each parent is changed by
// publishing a modified copy of its body under its mutex. A leaf split
// always finds its parent on the path, since the root is an inner node.
func (t *Tree[V]) insertParent(st *txState[V], sep int, kid unsafe.Pointer) {
	p := st.path[len(st.path)-1]
	st.path = st.path[:len(st.path)-1]
	for {
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
			nr.put(i, sep, kid)
			p.route.Store(&nr)
			p.mu.Unlock()
			return
		}
		psep, s := p.split(r, i, sep, kid)
		t.statSmo.Add(1)
		if n := len(st.path); n > 0 {
			p, st.path = st.path[n-1], st.path[:n-1]
		} else if p = t.growRoot(st, p, psep, s); p == nil {
			return
		}
		sep, kid = psep, unsafe.Pointer(s)
	}
}

// split splits the full, latched inner node p, whose body is r, around the
// insertion of separator sep with right child kid at slot i, and drops the
// latch, returning the separator to promote and the new right sibling.
//
// The cut follows the leaf rule: at the middle unless the insert continues
// a run of puts (the body's last put was the slot just left of i), and then
// at i. The key at the cut moves up, and the pending pair lands in
// whichever side covers it: after a cut at i that is p, so the run keeps
// appending there and the separators beyond it move out of its way. A run
// at the end of a full body has no key to cut at; sep itself moves up, p
// stays full and the sibling starts with kid alone.
func (p *inner[V]) split(r *routing[V], i, sep int, kid unsafe.Pointer) (psep int, s *inner[V]) {
	cut := maxKeys / 2
	if i > 0 && r.last == i-1 {
		cut = i
	}
	// keep holds r's slots below the cut unchanged, so its last put is r's.
	keep, moved := &routing[V]{last: r.last}, &routing[V]{}
	if cut == r.n {
		psep = sep
		keep.n = copy(keep.keys[:], r.keys[:])
		copy(keep.kids[:], r.kids[:])
		moved.kids[0] = kid
	} else {
		psep = r.keys[cut]
		keep.n = copy(keep.keys[:], r.keys[:cut])
		copy(keep.kids[:], r.kids[:cut+1])
		moved.n = copy(moved.keys[:], r.keys[cut+1:r.n])
		copy(moved.kids[:], r.kids[cut+1:r.n+1])
		target := keep
		if sep >= psep {
			target = moved
		}
		j, _ := target.search(sep)
		target.put(j, sep, kid)
	}
	moved.hasHi, moved.hi, moved.right = r.hasHi, r.hi, r.right
	// Publish order: the sibling's body first, then the donor body whose
	// right link makes the sibling reachable.
	s = newInner(p.level, moved)
	keep.hasHi, keep.hi, keep.right = true, psep, s
	p.route.Store(keep)
	p.mu.Unlock()
	return psep, s
}

// growRoot handles the path-exhausted case of insertParent: left, an inner
// node that has just split, was the top of its descent's path. If left is
// still the root, a new root adopts the pair and the split is complete
// (returns nil). Otherwise the tree has grown, or is about to; descend from
// the current root to left's parent level and return that node as the
// insertion parent.
func (t *Tree[V]) growRoot(st *txState[V], left *inner[V], sep int, sibling *inner[V]) *inner[V] {
	for {
		t.smoMu.Lock()
		root := t.root.Load()
		if root == left {
			r := &routing[V]{}
			r.kids[0] = unsafe.Pointer(left)
			r.put(0, sep, unsafe.Pointer(sibling))
			t.root.Store(newInner(left.level+1, r))
			t.smoMu.Unlock()
			t.statSmo.Add(1)
			return nil
		}
		t.smoMu.Unlock()
		if root.level > left.level {
			p, _ := t.descend(sep, left.level+1, nil)
			return p
		}
		// left is a right sibling of a root that has split but not yet
		// grown the tree: its splitter is between dropping the root's
		// latch and the branch above. Let it run.
		runtime.Gosched()
	}
}

// leftmostLeaf returns the first leaf of the tree (quiescent helper).
func (t *Tree[V]) leftmostLeaf() *node[V] {
	return t.leafOf(math.MinInt, nil)
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
	return t.checkInner(root, root.level, math.MinInt)
}

// checkInner checks the subtree of p, which should be at level and hold
// no key below lo.
func (t *Tree[V]) checkInner(p *inner[V], level, lo int) error {
	if p == nil || p.level != level {
		return fmt.Errorf("txbtree: missing or misleveled child at level %d", level)
	}
	r := p.route.Load()
	err := r.check(level, lo)
	for i := 0; i <= r.n && err == nil; i++ {
		if i > 0 {
			lo = r.keys[i-1]
		}
		if level > 1 {
			err = t.checkInner(r.innerKid(i), level-1, lo)
		} else {
			err = t.checkLeaf(r.leafKid(i), lo)
		}
	}
	return err
}

func (t *Tree[V]) checkLeaf(nd *node[V], lo int) error {
	if nd == nil {
		return fmt.Errorf("txbtree: missing leaf")
	}
	if err := nd.check(0, lo); err != nil {
		return err
	}
	for rec := nd.locks.Load(); rec != nil; rec = rec.next {
		if rec.key < lo || nd.past(rec.key) {
			return fmt.Errorf("txbtree: lock record of key %d outside its leaf's fence", rec.key)
		}
	}
	if rec := nd.locks.Load(); rec != nil {
		return fmt.Errorf("txbtree: lock record of key %d left in a quiescent tree", rec.key)
	}
	return nil
}

// check checks that a node's keys are sorted, not below lo and below the
// node's fence.
func (sp *span) check(level, lo int) error {
	for i := 0; i < sp.n; i++ {
		if i > 0 && sp.keys[i-1] >= sp.keys[i] {
			return fmt.Errorf("txbtree: unsorted keys at level %d: %d !< %d", level, sp.keys[i-1], sp.keys[i])
		}
		if sp.keys[i] < lo {
			return fmt.Errorf("txbtree: key %d below low bound %d at level %d", sp.keys[i], lo, level)
		}
		if sp.past(sp.keys[i]) {
			return fmt.Errorf("txbtree: key %d at/above fence %d at level %d", sp.keys[i], sp.hi, level)
		}
	}
	return nil
}
