package txbtree

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"wincm/internal/cm"
	"wincm/internal/rng"
	"wincm/internal/stm"
)

// Tests of the node access protocol; they live inside the package because
// they latch nodes and look at levels from outside any transaction.

func newTestRT(t testing.TB, m int) *stm.Runtime {
	t.Helper()
	mgr, err := cm.New("polka", m)
	if err != nil {
		t.Fatal(err)
	}
	return stm.New(m, mgr)
}

// fill inserts keys (value = 10·key), batch per transaction.
func fill(th *stm.Thread, tr *Tree[int], keys []int, batch int) {
	for len(keys) > 0 {
		n := min(batch, len(keys))
		th.Atomic(func(tx *stm.Tx) {
			for _, k := range keys[:n] {
				tr.Insert(tx, k, 10*k)
			}
		})
		keys = keys[n:]
	}
}

// innerNodes returns every inner node of a quiescent tree.
func innerNodes(tr *Tree[int]) []*inner[int] {
	var out []*inner[int]
	var walk func(p *inner[int])
	walk = func(p *inner[int]) {
		out = append(out, p)
		if p.level == 1 {
			return
		}
		r := p.route.Load()
		for i := 0; i <= r.n; i++ {
			walk(r.innerKid(i))
		}
	}
	walk(tr.root.Load())
	return out
}

// within fails the test if fn has not returned after a generous bound: the
// tests below turn "took a latch it must not take" into a hang.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// TestDescentTakesNoInnerLatch: with every inner node's mutex held from
// outside, reads, scans and writes that split nothing must still complete
// — a descent neither read- nor write-latches an inner node, and a write
// that stays inside its leaf never visits one.
func TestDescentTakesNoInnerLatch(t *testing.T) {
	// The lone "eager" level is the protocol's name, kept from when a second
	// engine ran here too, so test names are stable.
	t.Run("eager", func(t *testing.T) {
		th := newTestRT(t, 1).Thread(0)
		tr := New[int]()
		const n = 6000
		keys := make([]int, n)
		for i := range keys {
			// Descending, one key per transaction: every insert lands at
			// slot 0, which never continues a sequential run, so every split
			// cuts at the middle, leaves stay half full and odd keys are free.
			keys[i] = 2 * (n - 1 - i)
		}
		fill(th, tr, keys, 1)
		if lvl := tr.root.Load().level; lvl < 2 {
			t.Fatalf("root level %d, want a tree of at least 3 levels", lvl)
		}
		inner := innerNodes(tr)
		for _, nd := range inner {
			nd.mu.Lock()
		}
		within(t, "Get/Insert/Scan under held inner latches", func() {
			for _, k := range []int{2 * maxKeys, n, 2*n - 200, 2*n - 2} { // not the leftmost leaf: it may be full
				th.Atomic(func(tx *stm.Tx) {
					if v, ok := tr.Get(tx, k); !ok || v != 10*k {
						t.Errorf("Get(%d) = %d,%v", k, v, ok)
					}
					if tr.Insert(tx, k, 10*k) {
						t.Errorf("Insert(%d) reported absent", k)
					}
					if !tr.Insert(tx, k+1, 10*(k+1)) {
						t.Errorf("Insert(%d) reported present", k+1)
					}
				})
			}
			th.Atomic(func(tx *stm.Tx) {
				got := 0
				tr.Scan(tx, 1000, 1400, func(k, v int) bool { got++; return true })
				if got != 200 {
					t.Errorf("Scan[1000,1400) saw %d keys, want 200", got)
				}
			})
		})
		for _, nd := range inner {
			nd.mu.Unlock()
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := tr.Len(); got != n+4 {
			t.Fatalf("Len = %d, want %d", got, n+4)
		}
	})
}

// TestReadersThroughSplitStorm: readers Get a fixed set of present keys
// while writers push ascending and random keys through leaf splits, inner
// splits and two root growths. Every read must hit with the right value
// whatever stale body or half-propagated split the descent crossed.
func TestReadersThroughSplitStorm(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		const (
			readers  = 2
			perWrite = 20000
			keySpace = 1 << 16
		)
		rt := newTestRT(t, readers+2)
		tr := New[int]()
		fixed := make([]int, 16)
		for i := range fixed {
			fixed[i] = i * keySpace / len(fixed)
		}
		fill(rt.Thread(0), tr, fixed, 1)
		startLevel := tr.root.Load().level

		var stop atomic.Bool
		var wg, rwg, reading sync.WaitGroup
		for id := 0; id < readers; id++ {
			rwg.Add(1)
			reading.Add(1)
			go func(id int) {
				defer rwg.Done()
				th := rt.Thread(2 + id)
				for i := id; !stop.Load(); i++ {
					k := fixed[i%len(fixed)]
					th.Atomic(func(tx *stm.Tx) {
						if v, ok := tr.Get(tx, k); !ok || v != 10*k {
							t.Errorf("reader %d: Get(%d) = %d,%v want %d,true", id, k, v, ok, 10*k)
						}
					})
					if i == id {
						reading.Done()
					}
				}
			}(id)
		}
		reading.Wait() // the storm starts with every reader already in its loop
		wg.Add(2)
		go func() { // ascending: every split is at the right edge
			defer wg.Done()
			th := rt.Thread(0)
			for k := 1; k <= perWrite; k++ {
				th.Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, 10*k) })
			}
		}()
		go func() { // random: splits land everywhere, fixed keys included
			defer wg.Done()
			th := rt.Thread(1)
			r := rng.New(7)
			for i := 0; i < perWrite; i++ {
				k := r.Intn(keySpace)
				th.Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, 10*k) })
			}
		}()
		wg.Wait()
		stop.Store(true)
		rwg.Wait()

		if grew := tr.root.Load().level - startLevel; grew < 2 {
			t.Errorf("root grew %d times, want at least 2", grew)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if keys := tr.Keys(); !slices.IsSorted(keys) {
			t.Fatal("Keys() not sorted")
		}
	})
}

// TestStaleApplyHint: a transaction buffers a write of k, then other
// transactions split k's leaf again and again so that k lives at least two
// siblings to the right of the leaf the write remembers. Its commit must
// find k there by right links alone: the value lands once, in k's current
// home, and since k's own binding never changed nothing is counted as a
// semantic conflict.
func TestStaleApplyHint(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		rt := newTestRT(t, 2)
		tr := New[int]()
		keys := make([]int, maxKeys)
		for i := range keys {
			keys[i] = 100 * i
		}
		fill(rt.Thread(0), tr, keys, 1)
		const k = 100 * (maxKeys - 1)
		hint := tr.leftmostLeaf() // the single, full leaf
		if hint.right != nil || hint.n != maxKeys {
			t.Fatalf("setup: first leaf has %d keys and a sibling: %v", hint.n, hint.right != nil)
		}

		paused, resume := make(chan struct{}), make(chan struct{})
		var info stm.TxInfo
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			first := true
			info = rt.Thread(0).Atomic(func(tx *stm.Tx) {
				tr.Insert(tx, k, -1)
				if first {
					first = false
					close(paused)
					<-resume
				}
			})
		}()
		<-paused
		// 3001… sort just below k: the first insert splits the full leaf
		// (k moves one sibling right), the next ones fill that sibling and
		// split it again, each split moving k further right.
		for i := 1; i <= maxKeys/2+2; i++ {
			rt.Thread(1).Atomic(func(tx *stm.Tx) { tr.Insert(tx, k-100+i, 0) })
		}
		home, hops := hint, 0
		for home.past(k) {
			home, hops = home.right, hops+1
		}
		if _, ok := home.search(k); !ok || hops < 2 {
			t.Fatalf("setup: key %d is %d siblings right of its hint, want at least 2", k, hops)
		}
		close(resume)
		wg.Wait()

		if a := info.Aborts(); a != 0 {
			t.Errorf("writer aborted %d times; only its leaf changed, not its key", a)
		}
		if sem, _, avoided := tr.Stats(); sem != 0 || avoided == 0 {
			t.Errorf("semantic conflicts = %d (want 0), false conflicts avoided = %d (want > 0)", sem, avoided)
		}
		if i, ok := home.search(k); !ok || home.vals[i] != -1 {
			t.Errorf("value did not land in key %d's current home", k)
		}
		all := tr.Keys()
		if !slices.IsSorted(all) || len(slices.Compact(slices.Clone(all))) != len(all) {
			t.Errorf("Keys() unsorted or duplicated: %v", all)
		}
		if want := maxKeys + maxKeys/2 + 2; len(all) != want {
			t.Errorf("Len = %d, want %d", len(all), want)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSiblingSplitsBeforeRootGrows pins the one window in which a split
// finds no parent level at all: the root has split, its splitter has not
// yet installed the new root, and meanwhile the root's new sibling fills
// up and splits too. That second splitter must wait for the tree to grow
// rather than descend from a root that is still at its own level.
func TestSiblingSplitsBeforeRootGrows(t *testing.T) {
	// Ascending keys, one per transaction, pack every leaf and the root:
	// full keys make maxKeys+1 full leaves under a full level-1 root.
	const full = maxKeys * (maxKeys + 1)
	rt := newTestRT(t, 2)
	tr := New[int]()
	keys := make([]int, full)
	for i := range keys {
		keys[i] = i
	}
	fill(rt.Thread(0), tr, keys, 1)
	root := tr.root.Load()
	if r := root.route.Load(); root.level != 1 || r.n != maxKeys {
		t.Fatalf("setup: root level %d with %d keys, want a full level-1 root", root.level, r.n)
	}

	// The last leaf splits, then the root, and the splitter stops before
	// it grows the tree.
	leaf := tr.leafOf(full, nil)
	leaf.mu.Lock()
	sep, sib := leaf.split(full, 0, nil)
	root.mu.Lock()
	r := root.route.Load()
	i, _ := r.search(sep)
	psep, s := root.split(r, i, sep, unsafe.Pointer(sib))

	// Ascending inserts fill the root's new sibling until it splits; that
	// splitter now needs a parent level, and none exists yet.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := full + 1; k <= 2*full; k++ {
			rt.Thread(1).Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, 0) })
		}
	}()
	for s.route.Load().right == nil {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // let it reach growRoot and find no parent level

	// The root's splitter resumes.
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		if tr.growRoot(tr.enter(tx), root, psep, s) != nil {
			t.Error("the root's splitter found the tree already grown")
		}
	})
	within(t, "the sibling's split", wg.Wait)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Len(), 2*full+1; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if lvl := tr.root.Load().level; lvl != 2 {
		t.Fatalf("root level %d, want 2", lvl)
	}
}

// fillAt returns the mean fill of a quiescent tree's nodes at level: keys ÷
// (nodes × maxKeys).
func fillAt(tr *Tree[int], level int) float64 {
	keys, nodes := 0, 0
	if level == 0 {
		for nd := tr.leftmostLeaf(); nd != nil; nd = nd.right {
			keys, nodes = keys+nd.n, nodes+1
		}
	} else {
		for p, _ := tr.descend(math.MinInt, level, nil); p != nil; nodes++ {
			r := p.route.Load()
			keys += r.n
			p = r.right
		}
	}
	return float64(keys) / float64(nodes*maxKeys)
}

// TestSplitPacksSequentialRuns: a split cuts where a sequential run
// inserts, so ascending runs leave full leaves and nearly full parents,
// also when a run starts beside another stream's keys (trapped) or shares
// the tree with a second run (concurrent, the preload's shape); any other
// insert order still splits at the middle, at both levels.
func TestSplitPacksSequentialRuns(t *testing.T) {
	const n = 2048 * maxKeys
	asc := func(lo, hi int) []int {
		keys := make([]int, 0, hi-lo)
		for k := lo; k < hi; k++ {
			keys = append(keys, k)
		}
		return keys
	}
	a, b := asc(0, n/2), asc(n/2, n)
	desc := asc(0, n)
	slices.Reverse(desc)
	random, r := asc(0, n), rng.New(3)
	for i := len(random) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		random[i], random[j] = random[j], random[i]
	}
	for _, tc := range []struct {
		name     string
		streams  [][]int // inserted one key per transaction, one goroutine each
		lo, hi   float64 // the band leaf fill must lie in
		plo, phi float64 // the band parent fill must lie in
	}{
		{"ascending", [][]int{asc(0, n)}, 1, 1, 0.9, 1},
		{"trapped", [][]int{slices.Concat(b[:10], a, b[10:])}, 1, 1, 0.9, 1},
		{"random", [][]int{random}, 0.6, 0.8, 0.6, 0.8},
		{"descending", [][]int{desc}, 0.45, 0.55, 0.45, 0.55},
		{"concurrent", [][]int{a, b}, 0.95, 1, 0.9, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newTestRT(t, len(tc.streams))
			tr := New[int]()
			var wg sync.WaitGroup
			for id, keys := range tc.streams {
				wg.Add(1)
				go func() { defer wg.Done(); fill(rt.Thread(id), tr, keys, 1) }()
			}
			wg.Wait()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := tr.Len(); got != n {
				t.Fatalf("Len = %d, want %d", got, n)
			}
			leaf, parent := fillAt(tr, 0), fillAt(tr, 1)
			t.Logf("leaf fill %.3f, parent fill %.3f", leaf, parent)
			if leaf < tc.lo || leaf > tc.hi {
				t.Errorf("leaf fill %.3f, want within [%.2f, %.2f]", leaf, tc.lo, tc.hi)
			}
			if parent < tc.plo || parent > tc.phi {
				t.Errorf("parent fill %.3f, want within [%.2f, %.2f]", parent, tc.plo, tc.phi)
			}
		})
	}
}

// TestLookupZeroAlloc: with the per-thread read-set scratch warm, a
// transactional lookup — descend, log one key read, validate one leaf
// version at commit — allocates nothing.
func TestLookupZeroAlloc(t *testing.T) {
	th := newTestRT(t, 1).Thread(0)
	tr := New[int]()
	const keys = 1024
	all := make([]int, keys)
	for i := range all {
		all[i] = i
	}
	fill(th, tr, all, 8)
	i := 0
	get := func(tx *stm.Tx) {
		if v, ok := tr.Get(tx, i); !ok || v != 10*i {
			t.Errorf("Get(%d) = %d, %v", i, v, ok)
		}
	}
	lookup := func() {
		i = (i*7919 + 13) % keys
		th.Atomic(get)
	}
	for n := 0; n < 200; n++ { // past the scratch ramp
		lookup()
	}
	if got := testing.AllocsPerRun(200, lookup); got != 0 {
		t.Errorf("transactional lookup: %v allocs, want 0", got)
	}
}

// TestWritePathAllocations: with the per-thread scratch and lock-record
// slab warm, a commit allocates nothing — no lock record, no sort closure,
// no boxed slice, and no node unless a leaf splits.
func TestWritePathAllocations(t *testing.T) {
	th := newTestRT(t, 1).Thread(0)
	tr := New[int]()
	keys := make([]int, 1000)
	for i := range keys {
		keys[i] = i
	}
	fill(th, tr, keys, 8)
	one := func(tx *stm.Tx) { tr.Insert(tx, 500, 1) }
	many := func(tx *stm.Tx) {
		for k := 16; k > 0; k-- { // descending, so Validate has to sort
			tr.Insert(tx, 37*k, 1)
		}
	}
	th.Atomic(one)
	th.Atomic(many)
	if got := testing.AllocsPerRun(200, func() { th.Atomic(one) }); got != 0 {
		t.Errorf("single-key upsert: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { th.Atomic(many) }); got != 0 {
		t.Errorf("16-key upsert: %v allocs, want 0", got)
	}
}

// allocBytes returns the heap bytes one new(T) takes, as the allocator
// counts them over many allocations: the size class, including any malloc
// header, not unsafe.Sizeof. The allocator counts a cached span's objects
// when the span leaves its cache, which a collection forces, so one runs
// before each reading.
func allocBytes[T any]() float64 {
	const n = 4096
	keep := make([]*T, n)
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtime.GC()
	metrics.Read(s)
	before := s[0].Value.Uint64()
	for i := range keep {
		keep[i] = new(T)
	}
	runtime.GC()
	metrics.Read(s)
	runtime.KeepAlive(keep)
	return float64(s[0].Value.Uint64()-before) / n
}

// TestLeafKeepsSizeClass: the nodes of the kv store's tree take the size
// classes they are laid out for — a leaf 896 B, an inner header 64 B and a
// routing body 640 B. The limit for a leaf is 888 B, not 896: a pointerful
// object over 512 B carries an 8 B malloc header, and one more key would
// move it to 1,024 B. Neighbouring classes are at least 64 B away, so a few
// bytes of other allocations during a measurement cannot blur the answer.
func TestLeafKeepsSizeClass(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"node[int64]", allocBytes[node[int64]](), 896},
		{"inner[int64]", allocBytes[inner[int64]](), 64},
		{"routing[int64]", allocBytes[routing[int64]](), 640},
	} {
		if math.Abs(c.got-c.want) > 8 {
			t.Errorf("%s takes %.1f B of heap, want %.0f", c.name, c.got, c.want)
		}
	}
}

// TestLiveBytesPerKey: a kv-shaped preload — two goroutines writing the two
// ascending halves of 2¹⁶ keys, one key per transaction — costs at most
// 28 B of live heap per key: full 896 B leaves of 34 keys (26.4 B a key)
// and packed inner nodes.
func TestLiveBytesPerKey(t *testing.T) {
	const n = 1 << 16
	rt := newTestRT(t, 2)
	live := func() uint64 {
		runtime.GC()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		return s[0].Value.Uint64()
	}
	before := live()
	tr := New[int]()
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := rt.Thread(id)
			for k := id * n / 2; k < (id+1)*n/2; k++ {
				th.Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, k) })
			}
		}()
	}
	wg.Wait()
	perKey := float64(live()-before) / n
	if got := tr.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	t.Logf("%.2f B per key, %d inner nodes", perKey, len(innerNodes(tr)))
	if perKey > 28 {
		t.Errorf("%.2f B of live heap per key, want at most 28", perKey)
	}
}

// parkAtCommit is a SemanticOps registered after the tree's: its Validate
// runs once the tree has linked the attempt's lock records, and parks the
// first attempt there until resume is closed — an attempt that holds its
// key locks for as long as a test needs.
type parkAtCommit struct {
	parked, resume chan struct{}
	done           bool
	fail           bool // the parked attempt fails validation once resumed
}

func newPark() *parkAtCommit {
	return &parkAtCommit{parked: make(chan struct{}), resume: make(chan struct{})}
}

func (p *parkAtCommit) Validate(*stm.Tx) bool {
	if !p.done {
		p.done = true
		close(p.parked)
		<-p.resume
		return !p.fail
	}
	return true
}

func (p *parkAtCommit) Finalize(*stm.Tx, bool) {}

// holdLock runs a transaction on thread th that upserts (key, val) and parks
// holding key's lock; it returns the holder's Tx once the lock is held, and
// a function that resumes the holder and waits for its commit.
func holdLock(th *stm.Thread, tr *Tree[int], key, val int) (holder *stm.Tx, finish func() stm.TxInfo) {
	p := newPark()
	var info stm.TxInfo
	done := make(chan struct{})
	go func() {
		defer close(done)
		info = th.Atomic(func(tx *stm.Tx) {
			holder = tx
			tr.Insert(tx, key, val)
			tx.AddSemantic(p)
		})
	}()
	<-p.parked
	return holder, func() stm.TxInfo { close(p.resume); <-done; return info }
}

// fixedCM decides every conflict the same way: AbortSelf makes the
// attacker retry until the enemy is gone, AbortEnemy makes it win at once.
type fixedCM struct {
	stm.NopManager
	dec stm.Decision
}

func (f fixedCM) Resolve(_, _ *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	return f.dec, 0
}

// waitConflict waits until the tree has routed at least one key conflict
// through the contention manager.
func waitConflict(t *testing.T, tr *Tree[int]) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		if sem, _, _ := tr.Stats(); sem > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no key conflict reached the contention manager")
		}
	}
}

// TestLockRecordFollowsSplit: a held lock record moves with its key when
// another committer's apply splits the key's leaf — twice, so the key ends
// at least two siblings right of the leaf its lock was taken in — and a
// reader of the moved key still meets the holder there. The holder's apply
// then finds the record by right links and leaves no record behind.
func TestLockRecordFollowsSplit(t *testing.T) {
	rt := stm.New(3, fixedCM{dec: stm.AbortSelf}) // a reader that meets the holder aborts itself until it is gone
	tr := New[int]()
	keys := make([]int, maxKeys)
	for i := range keys {
		keys[i] = 100 * i
	}
	fill(rt.Thread(0), tr, keys, 1)
	const k = 100 * (maxKeys - 1)
	hint := tr.leftmostLeaf()
	holder, finish := holdLock(rt.Thread(0), tr, k, -1)

	for i := 1; i <= maxKeys/2+2; i++ {
		rt.Thread(1).Atomic(func(tx *stm.Tx) { tr.Insert(tx, k-100+i, 0) })
	}
	home, hops := hint, 0
	for home.past(k) {
		home, hops = home.right, hops+1
	}
	if hops < 2 {
		t.Fatalf("setup: key %d is %d siblings right of its lock's leaf, want at least 2", k, hops)
	}
	recorded := func(nd *node[int]) (found bool) {
		nd.mu.Lock()
		defer nd.mu.Unlock()
		for r := nd.locks.Load(); r != nil; r = r.next {
			found = found || (r.key == k && r.owner == holder)
		}
		return found
	}
	if recorded(hint) || !recorded(home) {
		t.Fatalf("the held record of key %d did not follow it: in its old leaf %v, in its home %v", k, recorded(hint), recorded(home))
	}

	got := make(chan int)
	go func() {
		var v int
		rt.Thread(2).Atomic(func(tx *stm.Tx) { v, _ = tr.Get(tx, k) })
		got <- v
	}()
	waitConflict(t, tr)
	if info := finish(); info.Aborts() != 0 {
		t.Errorf("holder aborted %d times", info.Aborts())
	}
	if v := <-got; v != -1 {
		t.Errorf("reader got %d, want the holder's -1", v)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAbsentKeyLockBlocks: a pending insert of an absent key locks it in
// the leaf that would hold it, so a concurrent insert or Get of the same key
// blocks until the holder commits, and then sees its write.
func TestAbsentKeyLockBlocks(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(tx *stm.Tx, tr *Tree[int]) bool // reports whether it saw the key
	}{
		{"Insert", func(tx *stm.Tx, tr *Tree[int]) bool { return !tr.Insert(tx, 55, 2) }},
		{"Get", func(tx *stm.Tx, tr *Tree[int]) bool { _, ok := tr.Get(tx, 55); return ok }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := stm.New(2, fixedCM{dec: stm.AbortSelf})
			tr := New[int]()
			fill(rt.Thread(0), tr, []int{10, 20, 50, 60, 90}, 5)
			_, finish := holdLock(rt.Thread(0), tr, 55, -1)
			saw := make(chan bool, 1)
			go func() {
				var ok bool
				rt.Thread(1).Atomic(func(tx *stm.Tx) { ok = tc.op(tx, tr) })
				saw <- ok
			}()
			waitConflict(t, tr)
			select {
			case <-saw:
				t.Fatal("the contender finished while the holder still held key 55")
			case <-time.After(20 * time.Millisecond):
			}
			finish()
			if !<-saw {
				t.Error("the contender did not see the holder's committed insert")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScanRacesInsert: a Scan that misses a pending in-range insert meets
// the inserter's lock record at its commit-time sweep, so one of the two
// aborts: when the scanner aborts itself it retries until the insert lands
// and then sees it, when it aborts the enemy the inserter is aborted and the
// scanner commits without it.
func TestScanRacesInsert(t *testing.T) {
	for _, tc := range []struct {
		dec      stm.Decision
		scanSees bool
	}{{stm.AbortSelf, true}, {stm.AbortEnemy, false}} {
		t.Run(tc.dec.String(), func(t *testing.T) {
			rt := stm.New(2, fixedCM{dec: tc.dec})
			tr := New[int]()
			fill(rt.Thread(0), tr, []int{10, 20, 50, 60, 90}, 5)
			_, finish := holdLock(rt.Thread(0), tr, 55, -1)
			var sawKey bool
			scanned := make(chan stm.TxInfo)
			go func() {
				scanned <- rt.Thread(1).Atomic(func(tx *stm.Tx) {
					sawKey = false
					tr.Scan(tx, 40, 70, func(k, _ int) bool { sawKey = sawKey || k == 55; return true })
				})
			}()
			waitConflict(t, tr)
			var scanner, inserter stm.TxInfo
			if tc.scanSees {
				inserter = finish()
				scanner = <-scanned
			} else {
				scanner = <-scanned // the scanner won; the inserter learns at its commit
				inserter = finish()
			}
			if (scanner.Aborts() > 0) == (inserter.Aborts() > 0) {
				t.Errorf("scanner aborted %d times, inserter %d: want exactly one of them", scanner.Aborts(), inserter.Aborts())
			}
			if sawKey != tc.scanSees {
				t.Errorf("scan saw key 55: %v, want %v", sawKey, tc.scanSees)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
