package kv

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"testing"
	"time"

	"wincm/internal/cm"
	"wincm/internal/rng"
	"wincm/internal/stm"
)

// testStore builds a small store, failing the test on error.
func testStore(t *testing.T, o Options) *Store {
	t.Helper()
	st, err := NewStore(o)
	if err != nil {
		t.Fatalf("NewStore(%+v): %v", o, err)
	}
	t.Cleanup(st.Close)
	return st
}

// yieldEvery makes every k-th open yield on every shard's runtime, before
// any transaction runs; shards force no yield of their own. The tree calls
// the yield (stm.Tx.SemanticOpen) only at the start of each tree operation,
// before that operation takes a key lock, and never inside a commit. So on
// one core it interleaves sessions between operations (a cross-shard read
// loses the processor between its shards), but it does not make two
// transactions hold conflicting keys at once: a single-key transaction is
// one tree operation and runs to its commit unless the Go scheduler
// preempts it.
func yieldEvery(st *Store, k int) {
	for _, sh := range st.shards {
		sh.rt.SetYieldEvery(k)
	}
}

// TestLocalGetZeroAlloc: the in-process single-shard read path — session,
// thread claim, STM transaction, tree lookup, stats — allocates nothing.
func TestLocalGetZeroAlloc(t *testing.T) {
	se := testStore(t, Options{Shards: 4, ShardThreads: 2, Seed: 1}).NewSession()
	for k := int64(0); k < 1024; k++ {
		se.Set(k, k)
	}
	k := int64(0)
	get := func() {
		k = (k + 7) & 1023
		if v, ok := se.Get(k); !ok || v != k {
			t.Errorf("Get(%d) = %d, %v", k, v, ok)
		}
	}
	for i := 0; i < 200; i++ { // past the per-thread scratch ramp
		get()
	}
	if n := testing.AllocsPerRun(200, get); n != 0 {
		t.Errorf("local GET allocates %.1f per run, want 0", n)
	}
}

// TestLocalSetZeroAlloc: the in-process single-shard write path — SET, and
// an MSET whose keys all live on one shard — allocates nothing once the
// session, the threads' tree scratch and their lock-record slabs are warm.
func TestLocalSetZeroAlloc(t *testing.T) {
	st := testStore(t, Options{Shards: 4, ShardThreads: 2, Seed: 1})
	se := st.NewSession()
	for k := int64(0); k < 1024; k++ {
		se.Set(k, k)
	}
	keys := make([]int64, 0, 16)
	for k := int64(0); len(keys) < cap(keys); k++ {
		if st.shardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	vals := make([]int64, len(keys))
	k := int64(0)
	set := func() {
		k = (k + 7) & 1023
		se.Set(k, -k)
	}
	mset := func() {
		vals[0]++
		if err := se.MSet(keys, vals); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // past the per-thread scratch ramp
		set()
		mset()
	}
	if n := testing.AllocsPerRun(200, set); n != 0 {
		t.Errorf("local SET allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, mset); n != 0 {
		t.Errorf("local single-shard MSET of %d keys allocates %.1f per run, want 0", len(keys), n)
	}
}

// TestClosedStoreLeavesNothing: a thousand stores built and closed leave
// no goroutine behind, and the live heap within 16 KB of where it started —
// a closed store keeps nothing of itself reachable, its watchdogs included.
//
// Three things besides a leak move that reading, and each is taken out: a
// stopped timer stays in the runtime's timer heap, holding its watchdog
// and so its store, until its deadline passes, so a reading first waits
// past one watchdog interval; a sync.Pool's victim cache outlives one
// collection, so it collects twice; and runtime/metrics builds its tables
// on first use, so that use comes before the baseline. What is left reads
// a few hundred bytes, 5.5 KB at most in 28 runs beside other packages'
// tests, and a leak of 32 B per store reads 32 KB.
func TestClosedStoreLeavesNothing(t *testing.T) {
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			st, err := NewStore(Options{Shards: 2, ShardThreads: 2, Seed: uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			st.NewSession().Set(int64(i), 1)
			st.Close()
		}
	}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	liveHeap := func() int64 {
		time.Sleep(DefaultTxDeadline + 50*time.Millisecond) // past every stopped watchdog's deadline
		runtime.GC()
		runtime.GC()
		metrics.Read(s)
		return int64(s[0].Value.Uint64())
	}
	metrics.Read(s)
	cycle(10) // warm the runtime's own structures (timer heaps, size classes)
	goroutines, heap := runtime.NumGoroutine(), liveHeap()
	cycle(1000)
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after closing 1,000 stores, %d before", n, goroutines)
	}
	if grew := liveHeap() - heap; grew > 16<<10 {
		t.Errorf("live heap grew %d B over 1,000 closed stores, want at most 16 KB", grew)
	}
}

// TestOptionsValidate is the fail-fast table: every configuration that
// would silently do nothing (or cannot work) must be rejected before a
// shard is built.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Options
		ok   bool
	}{
		{"zero value (all defaults)", Options{}, true},
		{"explicit window manager", Options{Manager: "online-dynamic"}, true},
		{"classic manager", Options{Manager: "polka"}, true},
		{"negative shards", Options{Shards: -1}, false},
		{"negative threads", Options{ShardThreads: -2}, false},
		{"unknown manager", Options{Manager: "nope"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate = nil, want error")
			}
			// NewStore must agree with Validate (last fail-fast layer).
			st, err := NewStore(tc.o)
			if tc.ok {
				if err != nil {
					t.Fatalf("NewStore = %v, want ok", err)
				}
				st.Close()
			} else if err == nil {
				st.Close()
				t.Fatal("NewStore accepted an invalid Options")
			}
		})
	}
}

// TestShardRouting: the splitmix64 router must spread a dense key space
// over every shard, and routing must be stable.
func TestShardRouting(t *testing.T) {
	st := testStore(t, Options{Shards: 8, ShardThreads: 1})
	var hits [8]int
	for k := int64(0); k < 4096; k++ {
		s := st.shardOf(k)
		if s != st.shardOf(k) {
			t.Fatal("routing not stable")
		}
		hits[s]++
	}
	for i, h := range hits {
		if h < 4096/8/2 || h > 4096/8*2 {
			t.Fatalf("shard %d got %d of 4096 keys — router not spreading", i, h)
		}
	}
}

// TestModelSequential runs a deterministic random mix of every operation
// against a map model and checks full agreement, including scans.
func TestModelSequential(t *testing.T) {
	st := testStore(t, Options{Shards: 4, ShardThreads: 2, Seed: 7})
	se := st.NewSession()
	model := make(map[int64]int64)
	r := rng.New(42)
	const keySpace = 512
	for i := 0; i < 4000; i++ {
		k := int64(r.Uint64n(keySpace))
		switch r.Uint64n(10) {
		case 0, 1, 2: // set
			v := int64(r.Uint64())
			se.Set(k, v)
			model[k] = v
		case 3: // del
			got := se.Del(k)
			_, want := model[k]
			if got != want {
				t.Fatalf("op %d: Del(%d) = %v, want %v", i, k, got, want)
			}
			delete(model, k)
		case 4, 5, 6: // get
			got, ok := se.Get(k)
			want, wok := model[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, got, ok, want, wok)
			}
		case 7: // mset of up to 8 pairs
			n := int(r.Uint64n(8)) + 1
			keys := make([]int64, n)
			vals := make([]int64, n)
			for j := range keys {
				keys[j] = int64(r.Uint64n(keySpace))
				vals[j] = int64(r.Uint64())
			}
			if err := se.MSet(keys, vals); err != nil {
				t.Fatalf("MSet: %v", err)
			}
			for j := range keys {
				model[keys[j]] = vals[j] // later duplicate overwrites, like MSet
			}
		case 8: // mget of up to 8 keys
			n := int(r.Uint64n(8)) + 1
			keys := make([]int64, n)
			vals := make([]int64, n)
			present := make([]bool, n)
			for j := range keys {
				keys[j] = int64(r.Uint64n(keySpace))
			}
			if err := se.MGet(keys, vals, present); err != nil {
				t.Fatalf("MGet: %v", err)
			}
			for j, k := range keys {
				want, wok := model[k]
				if present[j] != wok || (wok && vals[j] != want) {
					t.Fatalf("op %d: MGet[%d]=%d,%v want %d,%v", i, k, vals[j], present[j], want, wok)
				}
			}
		case 9: // scan a random window
			lo := int64(r.Uint64n(keySpace))
			hi := lo + int64(r.Uint64n(64)) + 1
			n, err := se.Scan(lo, hi, MaxScanSpan)
			if err != nil {
				t.Fatalf("Scan: %v", err)
			}
			wantN := 0
			for k := lo; k < hi; k++ {
				if _, ok := model[k]; ok {
					wantN++
				}
			}
			if n != wantN {
				t.Fatalf("op %d: Scan[%d,%d) = %d pairs, want %d", i, lo, hi, n, wantN)
			}
			keys, vals := se.ScanKeys(), se.ScanVals()
			for j := 0; j < n; j++ {
				if j > 0 && keys[j] <= keys[j-1] {
					t.Fatalf("scan keys not ascending: %v", keys[:n])
				}
				if model[keys[j]] != vals[j] {
					t.Fatalf("scan pair %d=%d, want %d", keys[j], vals[j], model[keys[j]])
				}
			}
		}
	}
	stats := st.Stats()
	if stats.Commits == 0 {
		t.Fatal("no commits recorded")
	}
	if len(stats.PerShard) != 4 {
		t.Fatalf("PerShard = %d entries", len(stats.PerShard))
	}
}

// TestScanLimitsAndErrors covers the scan guard rails.
func TestScanLimitsAndErrors(t *testing.T) {
	st := testStore(t, Options{Shards: 2, ShardThreads: 1})
	se := st.NewSession()
	for k := int64(0); k < 100; k++ {
		se.Set(k, k*10)
	}
	n, err := se.Scan(10, 20, 5)
	if err != nil || n != 5 {
		t.Fatalf("Scan limit: n=%d err=%v", n, err)
	}
	for i, k := range se.ScanKeys() {
		if k != int64(10+i) || se.ScanVals()[i] != k*10 {
			t.Fatalf("limited scan pair %d: %d=%d", i, k, se.ScanVals()[i])
		}
	}
	if _, err := se.Scan(5, 5, 10); err != ErrScanRange {
		t.Fatalf("empty range: %v", err)
	}
	if _, err := se.Scan(10, 5, 10); err != ErrScanRange {
		t.Fatalf("inverted range: %v", err)
	}
	if _, err := se.Scan(0, MaxScanSpan+1, 10); err != ErrScanSpan {
		t.Fatalf("oversized span: %v", err)
	}
	// Signed hi-lo overflows here; the unsigned span guard must still
	// reject rather than scan the whole key space.
	if _, err := se.Scan(math.MinInt64, math.MaxInt64, 10); err != ErrScanSpan {
		t.Fatalf("overflowing span: %v", err)
	}
	if _, err := se.Scan(0, 10, 0); err != ErrScanRange {
		t.Fatalf("zero limit: %v", err)
	}
}

// TestScanMergesShardRuns: on a 3-shard store with every third key
// missing, Scan returns exactly the present keys of [lo, hi) in ascending
// order, cut at limit when limit is below the result count, and a warmed
// Scan allocates nothing.
func TestScanMergesShardRuns(t *testing.T) {
	st := testStore(t, Options{Shards: 3, ShardThreads: 2, Seed: 7})
	se := st.NewSession()
	for k := int64(-50); k < 250; k++ {
		if k%3 != 0 {
			se.Set(k, k*10)
		}
	}
	for _, tc := range []struct {
		lo, hi int64
		limit  int
	}{
		{-60, 260, 1000}, // wider than the keys on both sides
		{-60, 260, 7},
		{0, 200, 1},
		{10, 11, 5}, // one present key
		{9, 10, 5},  // one missing key
		{251, 300, 5},
	} {
		var want []int64
		for k := tc.lo; k < tc.hi && len(want) < tc.limit; k++ {
			if k >= -50 && k < 250 && k%3 != 0 {
				want = append(want, k)
			}
		}
		n, err := se.Scan(tc.lo, tc.hi, tc.limit)
		if err != nil || n != len(want) {
			t.Fatalf("Scan(%d, %d, %d) = %d, %v, want %d", tc.lo, tc.hi, tc.limit, n, err, len(want))
		}
		for i, k := range se.ScanKeys() {
			if k != want[i] || se.ScanVals()[i] != k*10 {
				t.Fatalf("Scan(%d, %d, %d) pair %d = %d:%d, want %d:%d", tc.lo, tc.hi, tc.limit, i, k, se.ScanVals()[i], want[i], want[i]*10)
			}
		}
	}
	scan := func() {
		if n, err := se.Scan(0, 200, 50); err != nil || n != 50 {
			t.Fatalf("Scan = %d, %v", n, err)
		}
	}
	scan()
	if n := testing.AllocsPerRun(100, scan); n != 0 {
		t.Errorf("warmed Scan allocates %.1f per run, want 0", n)
	}
}

// TestMultiKeyErrors covers the multi-key guard rails.
func TestMultiKeyErrors(t *testing.T) {
	st := testStore(t, Options{Shards: 2, ShardThreads: 1})
	se := st.NewSession()
	big := make([]int64, MaxMultiKeys+1)
	if err := se.MSet(big, big); err != ErrTooManyKeys {
		t.Fatalf("oversized MSet: %v", err)
	}
	if err := se.MGet(big, big, make([]bool, len(big))); err != ErrTooManyKeys {
		t.Fatalf("oversized MGet: %v", err)
	}
	if err := se.MSet([]int64{1, 2}, []int64{1}); err != ErrBadArgs {
		t.Fatalf("short vals: %v", err)
	}
	if err := se.MGet([]int64{1, 2}, make([]int64, 2), make([]bool, 1)); err != ErrBadArgs {
		t.Fatalf("short present: %v", err)
	}
	if err := se.MSet(nil, nil); err != nil {
		t.Fatalf("empty MSet: %v", err)
	}
	// Duplicate keys: last value wins.
	if err := se.MSet([]int64{9, 9}, []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if v, ok := se.Get(9); !ok || v != 2 {
		t.Fatalf("duplicate-key MSet left %d,%v", v, ok)
	}
}

// adversarialPair finds two keys routed to different shards — the
// smallest possible cross-shard transaction.
func adversarialPair(st *Store) (int64, int64) {
	a := int64(0)
	for b := int64(1); ; b++ {
		if st.shardOf(b) != st.shardOf(a) {
			return a, b
		}
	}
}

// TestCrossShardAtomicity is the equal-pair invariant: writers atomically
// MSet {a: x, b: -x}; concurrent MGet readers must always observe
// v(a) + v(b) == 0. A torn cross-shard commit would surface immediately.
// Run under -race this also exercises the lock ordering.
func TestCrossShardAtomicity(t *testing.T) {
	st := testStore(t, Options{Shards: 4, ShardThreads: 2, Seed: 11})
	a, b := adversarialPair(st)
	init := st.NewSession()
	if err := init.MSet([]int64{a, b}, []int64{0, 0}); err != nil {
		t.Fatal(err)
	}
	const writers, readers, iters = 3, 3, 400
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			se := st.NewSession()
			keys := []int64{a, b}
			for i := 1; i <= iters; i++ {
				x := int64(id*iters + i)
				if err := se.MSet(keys, []int64{x, -x}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			se := st.NewSession()
			keys := []int64{a, b}
			vals := make([]int64, 2)
			present := make([]bool, 2)
			for i := 0; i < iters; i++ {
				if err := se.MGet(keys, vals, present); err != nil {
					errs <- err
					return
				}
				if !present[0] || !present[1] || vals[0]+vals[1] != 0 {
					t.Errorf("torn read: a=%d(%v) b=%d(%v)", vals[0], present[0], vals[1], present[1])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSpanExcludesEveryShare: a shard keeps one commit-lock share per
// thread slot, but no more than GOMAXPROCS, and a span excludes a
// single-shard operation whichever slot its session prefers.
func TestSpanExcludesEveryShare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, threads := range []int{1, 2, 5} {
		sh := testStore(t, Options{Shards: 1, ShardThreads: threads}).shards[0]
		if want := min(threads, 2); sh.shares != want {
			t.Fatalf("ShardThreads %d: %d shares, want %d", threads, sh.shares, want)
		}
		for pref := 0; pref < threads; pref++ {
			sh.lockSpan()
			if sh.share(pref).TryRLock() {
				t.Fatalf("ShardThreads %d: a span does not exclude a session preferring slot %d", threads, pref)
			}
			sh.unlockSpan()
			if !sh.share(pref).TryRLock() {
				t.Fatalf("ShardThreads %d: slot %d's share still held after the span", threads, pref)
			}
			sh.share(pref).RUnlock()
		}
	}
}

// TestCrossShardReadStrictness pins the anomaly that shared-side
// cross-shard readers admitted: one writer alternates single-key
// Set(a, i) then Set(b, i) — so at every real-time instant the
// committed value of b trails (or equals) a — while cross-shard MGet
// and Scan readers assert v(b) ≤ v(a). Under a shared acquire a reader
// could read a, lose the processor, and read b after two later
// independent single-key commits, observing v(b) > v(a): a
// serialization cycle with the real-time order. The exclusive acquire
// makes the read span atomic against single-key writers too — whichever
// slot's share of the lock they read-lock, so the writer takes every
// slot preference in turn.
func TestCrossShardReadStrictness(t *testing.T) {
	st := testStore(t, Options{Shards: 4, ShardThreads: 2, Seed: 7})
	// The reader must lose the processor between its two shards for the
	// writer to overtake it; without forced yields a shared-side reader
	// passes here on one core and on two. What this test checks is lock
	// exclusion, not STM conflicts: its one writer never races another
	// single-key writer and the readers hold their shards exclusively, so
	// over 10 runs at each of -cpu 1, 2 and 4 (on a 2-core machine) the
	// shard runtimes counted 0 aborts and 0 manager verdicts. CI's -cpu
	// 2,4 runs add true parallelism: there the writer also reaches the
	// span locks while a reader holds them, not only when it yields.
	yieldEvery(st, 8)
	a, b := adversarialPair(st)
	// Readers visit shards in ascending index order, so the race only
	// shows when the first-written key lives on the lower-indexed shard
	// (read first, then overtaken while the reader crosses to the other
	// shard). Order the pair to make the writer adversarial.
	if st.shardOf(a) > st.shardOf(b) {
		a, b = b, a
	}
	// Filler keys on the probed shards widen the read span: the MGet
	// reads a first, then does real tree work on both shards, then reads
	// b last — giving a shared-side (buggy) reader a wide window in
	// which the writer can commit both keys between the two probes.
	var fillA, fillB []int64
	maxKey := a
	for k := int64(0); len(fillA) < 6 || len(fillB) < 6; k++ {
		if k == a || k == b {
			continue
		}
		switch st.shardOf(k) {
		case st.shardOf(a):
			if len(fillA) < 6 {
				fillA = append(fillA, k)
			}
		case st.shardOf(b):
			if len(fillB) < 6 {
				fillB = append(fillB, k)
			}
		default:
			continue
		}
		if k > maxKey {
			maxKey = k
		}
	}
	if b > maxKey {
		maxKey = b
	}
	mgetKeys := append(append(append([]int64{a}, fillA...), fillB...), b)
	init := st.NewSession()
	for _, k := range mgetKeys {
		init.Set(k, 0)
	}
	// One reader phase at a time against the live writer: with the buggy
	// shared acquire, concurrent cross-shard readers pile retry storms on
	// each other and the run livelocks before it can report; a lone
	// reader surfaces the inversion on nearly every iteration.
	const iters = 50
	ia, ib := 0, len(mgetKeys)-1
	rd := st.NewSession()
	vals := make([]int64, len(mgetKeys))
	present := make([]bool, len(mgetKeys))
	var i int64 // the writer's value, rising across the phases
	for pref := 0; pref < st.opt.ShardThreads; pref++ {
		se := st.NewSession()
		se.pref = pref
		stop := make(chan struct{})
		var wwg sync.WaitGroup
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				se.Set(a, i)
				se.Set(b, i)
			}
		}()
		for j := 0; j < iters; j++ {
			if err := rd.MGet(mgetKeys, vals, present); err != nil {
				t.Fatal(err)
			}
			if vals[ib] > vals[ia] {
				t.Fatalf("writer preferring slot %d: MGet inverted snapshot: a=%d b=%d (b is written after a, so it can only trail)", pref, vals[ia], vals[ib])
			}
		}
		for j := 0; j < iters; j++ {
			if _, err := rd.Scan(0, maxKey+1, int(maxKey)+1); err != nil {
				t.Fatal(err)
			}
			var va, vb int64
			for n, k := range rd.ScanKeys() {
				if k == a {
					va = rd.ScanVals()[n]
				}
				if k == b {
					vb = rd.ScanVals()[n]
				}
			}
			if vb > va {
				t.Fatalf("writer preferring slot %d: Scan inverted snapshot: a=%d b=%d", pref, va, vb)
			}
		}
		close(stop)
		wwg.Wait()
	}
}

// TestCrossShardLiveness mixes single-key traffic, cross-shard writers
// and cross-shard readers over adversarial key pairs on every shard
// boundary, and requires the whole mix to finish (deadlock-freedom of
// the ordered acquire) with aborts routed through the contention
// managers (the watchdog must never trip). At one P nothing conflicts:
// over 10 runs at -cpu 1 the shard runtimes counted 0 aborts and 0
// manager verdicts, since a single-key transaction is one tree operation
// and the cross-shard ones hold their shards exclusively. The overlap is
// exercised by CI's -cpu 2,4 runs, where single-key writers to a on
// different claim slots can meet at the STM; even there it is rare (on a
// 2-core machine, 0 aborts in 10 runs each at -cpu 2 and 4, and one abort
// in 2 of 9 runs under -race).
func TestCrossShardLiveness(t *testing.T) {
	st := testStore(t, Options{Shards: 4, ShardThreads: 2, Seed: 3})
	yieldEvery(st, 4)
	a, b := adversarialPair(st)
	const n = 8
	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			se := st.NewSession()
			keys := []int64{a, b}
			vals := make([]int64, 2)
			present := make([]bool, 2)
			for i := 0; i < 300; i++ {
				switch (id + i) % 4 {
				case 0:
					se.Set(a, int64(i))
				case 1:
					se.Get(b)
				case 2:
					se.MSet(keys, []int64{int64(i), int64(-i)})
				case 3:
					se.MGet(keys, vals, present)
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("cross-shard mix did not finish: possible deadlock")
	}
	stats := st.Stats()
	if stats.Commits == 0 {
		t.Fatal("no commits")
	}
	if stats.WatchdogTrips != 0 {
		t.Fatalf("watchdog tripped %d times — conflicts not resolving through the CM", stats.WatchdogTrips)
	}
	t.Logf("commits=%d aborts=%d", stats.Commits, stats.Aborts)
}

// holdGate, registered after the tree on an attempt, holds that attempt at
// its commit point, active and with the tree's key locks taken, until a
// conflict has been decided on rt (the fallback token or the manager ruled
// on one), the attempt is aborted, or 2 s pass. held is closed the first
// time it holds.
type holdGate struct {
	rt   *stm.Runtime
	held chan struct{}
	once sync.Once
}

func (g *holdGate) Validate(tx *stm.Tx) bool {
	g.once.Do(func() { close(g.held) })
	for end := time.Now().Add(2 * time.Second); decided(g.rt) == 0 &&
		tx.Status() == stm.Active && time.Now().Before(end); {
		runtime.Gosched()
	}
	return true
}

func (*holdGate) Finalize(*stm.Tx, bool) {}

// decided counts the conflicts rt's token or manager ruled on.
func decided(rt *stm.Runtime) int64 {
	v := rt.Verdicts()
	return v.AbortEnemy + v.AbortSelf + v.Wait
}

// withHeldKey runs mix while one transaction on st's first shard holds
// key's write lock at its commit point (holdGate), and returns once both
// are done; the transaction commits once. SET and MSET are blind writes
// whose key locks the tree takes only at commit, and nothing yields inside
// a commit, so the mix alone conflicts only when two commits run on two
// CPUs at once; the held lock makes the mix's first operation on key meet
// an active holder on any number of Ps.
func withHeldKey(st *Store, key int64, mix func()) {
	sh := st.shards[0]
	ts := sh.claim(0, make(chan *threadSlot, 1))
	gate := &holdGate{rt: sh.rt, held: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ts.th.Atomic(func(tx *stm.Tx) {
			sh.tree.Insert(tx, int(key), 0)
			tx.AddSemantic(gate)
		})
		sh.release(ts)
	}()
	<-gate.held
	mix()
	<-done
}

// TestSingleShardContention hammers one hot key from every thread of a
// one-shard store, beside a transaction holding the key's lock: conflicts
// must resolve through the CM (at least one is decided, commits equal the
// op count, no watchdog trips).
func TestSingleShardContention(t *testing.T) {
	st := testStore(t, Options{Shards: 1, ShardThreads: 4, Seed: 5})
	yieldEvery(st, 2)
	const goroutines, ops = 4, 500
	withHeldKey(st, 1, func() {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				se := st.NewSession()
				for i := 0; i < ops; i++ {
					se.Set(1, int64(i))
				}
			}()
		}
		wg.Wait()
	})
	if decided(st.shards[0].rt) == 0 {
		t.Fatal("no conflict decided: the manager was never asked")
	}
	stats := st.Stats()
	if stats.Commits != goroutines*ops+1 {
		t.Fatalf("commits = %d, want %d", stats.Commits, goroutines*ops+1)
	}
	if stats.WatchdogTrips != 0 {
		t.Fatalf("watchdog tripped %d times", stats.WatchdogTrips)
	}
}

// TestHotKeyEveryManager runs a one-shard hot-key write mix — SET on one
// key, MSET over it and a neighbour — under every registered contention
// manager with the service defaults (untimed runtime, fallback budgets,
// watchdog), beside a transaction holding the key's lock: at least one
// conflict is decided, every operation commits, and afterwards the
// watchdog finds the shard quiescent.
func TestHotKeyEveryManager(t *testing.T) {
	names := cm.Names() // the classic managers and, registered by core, the window variants
	slices.Sort(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			st := testStore(t, Options{Shards: 1, ShardThreads: 2, Manager: name, Seed: 9})
			yieldEvery(st, 2)
			const goroutines, ops = 3, 300
			withHeldKey(st, 1, func() {
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						se := st.NewSession()
						keys := []int64{1, 2}
						for i := 0; i < ops; i++ {
							if (g+i)%3 == 0 {
								if err := se.MSet(keys, []int64{int64(i), int64(-i)}); err != nil {
									t.Errorf("MSet: %v", err)
									return
								}
							} else {
								se.Set(1, int64(i))
							}
						}
					}(g)
				}
				wg.Wait()
			})
			if decided(st.shards[0].rt) == 0 {
				t.Error("no conflict decided: the manager was never asked")
			}
			stats := st.Stats()
			if stats.Commits != goroutines*ops+1 {
				t.Errorf("commits = %d, want %d", stats.Commits, goroutines*ops+1)
			}
			if !st.shards[0].wd.Quiescent() {
				t.Error("watchdog: shard not quiescent after every session returned")
			}
		})
	}
}

// TestPointOpsLeaveNothingScheduled: single-key operations that conflict
// with nobody never enter their shard's window schedule, so after 10k of
// them no shard's frame clock holds a registration.
func TestPointOpsLeaveNothingScheduled(t *testing.T) {
	st := testStore(t, Options{Shards: 4, ShardThreads: 2, Seed: 11})
	se := st.NewSession()
	for i := int64(0); i < 5000; i++ {
		se.Set(i, i)
		if v, ok := se.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	for _, sh := range st.shards {
		if sh.wm == nil {
			t.Fatalf("shard %d runs no window manager; the default changed", sh.idx)
		}
		if cur, total := sh.occupancy(); cur != 0 || total != 0 {
			t.Errorf("shard %d: occupancy() = (%d, %d), want (0, 0)", sh.idx, cur, total)
		}
		if bad := sh.wm.BadEvents(); bad != 0 {
			t.Errorf("shard %d: %d bad events without a conflict", sh.idx, bad)
		}
	}
	if stats := st.Stats(); stats.Commits != 10000 || stats.Aborts != 0 {
		t.Errorf("commits = %d, aborts = %d, want 10000, 0", stats.Commits, stats.Aborts)
	}
}
