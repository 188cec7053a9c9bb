package txbtree

import (
	"sync"
	"testing"
	"time"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// Tests of the batched commit: Validate locks, and Finalize applies or
// releases, each run of sorted writes that shares a leaf in one latched
// visit of that leaf.

// waitCM answers every conflict with a 1 ms Wait: the attacker parks on its
// enemy and retries when the enemy ends.
type waitCM struct{ stm.NopManager }

func (waitCM) Resolve(_, _ *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	return stm.Wait, time.Millisecond
}

// recordsOf returns how many of owner's lock records each leaf holds, left
// to right; a nil owner counts every record.
func recordsOf(tr *Tree[int], owner *stm.Tx) []int {
	var out []int
	for nd := tr.leftmostLeaf(); nd != nil; {
		nd.mu.Lock()
		n := 0
		for r := nd.locks.Load(); r != nil; r = r.next {
			if owner == nil || r.owner == owner {
				n++
			}
		}
		next := nd.right
		nd.mu.Unlock()
		out = append(out, n)
		nd = next
	}
	return out
}

func sum(ns []int) (s int) {
	for _, n := range ns {
		s += n
	}
	return s
}

// countAtCommit is a SemanticOps registered after the tree's: its Validate
// counts the records the attempt has linked by then.
type countAtCommit struct {
	tr     *Tree[int]
	linked int
}

func (c *countAtCommit) Validate(tx *stm.Tx) bool {
	c.linked = sum(recordsOf(c.tr, tx))
	return true
}

func (c *countAtCommit) Finalize(*stm.Tx, bool) {}

// holdThenFail runs, on thread th, one attempt that writes keys (value -1)
// and parks at its commit point holding their locks; once resumed it fails
// validation, and its retry writes nothing. It returns the holder's Tx once
// the locks are held, and a function that resumes the holder and waits for
// it to finish.
func holdThenFail(th *stm.Thread, tr *Tree[int], keys []int) (holder *stm.Tx, finish func()) {
	p := newPark()
	p.fail = true
	done := make(chan struct{})
	go func() {
		defer close(done)
		first := true
		th.Atomic(func(tx *stm.Tx) {
			if !first {
				return
			}
			first, holder = false, tx
			for _, k := range keys {
				tr.Insert(tx, k, -1)
			}
			tx.AddSemantic(p)
		})
	}()
	<-p.parked
	return holder, func() { close(p.resume); <-done }
}

// TestCommitRunWaitsOnMiddleKey: a live foreign record on the middle key of
// a 16-key run makes the committer wait with none of the run's records
// linked; once the holder is gone it links all 16 and commits.
func TestCommitRunWaitsOnMiddleKey(t *testing.T) {
	rt := stm.New(2, waitCM{})
	tr := New[int]()
	keys := make([]int, 16)
	for i := range keys {
		keys[i] = i
	}
	fill(rt.Thread(0), tr, keys, 16)

	// The committer logs its 16 own-key reads, then holds until the holder
	// has locked key 8, so it meets the holder in Validate.
	wrote, proceed := make(chan struct{}), make(chan struct{})
	seen := &countAtCommit{tr: tr}
	var committer *stm.Tx
	var info stm.TxInfo
	done := make(chan struct{})
	go func() {
		defer close(done)
		first := true
		info = rt.Thread(1).Atomic(func(tx *stm.Tx) {
			committer = tx
			for _, k := range keys {
				tr.Insert(tx, k, 1)
			}
			tx.AddSemantic(seen)
			if first {
				first = false
				close(wrote)
				<-proceed
			}
		})
	}()
	<-wrote
	_, finish := holdThenFail(rt.Thread(0), tr, []int{8})
	close(proceed)
	waitConflict(t, tr)
	if n := sum(recordsOf(tr, committer)); n != 0 {
		t.Errorf("the waiting committer has %d records linked, want 0: a run is locked whole or not at all", n)
	}
	finish()
	<-done
	if info.Aborts() != 0 {
		t.Errorf("committer aborted %d times, want 0", info.Aborts())
	}
	if seen.linked != 16 {
		t.Errorf("committer had %d records linked at its commit point, want 16", seen.linked)
	}
	model := map[int]int{}
	for _, k := range keys {
		model[k] = 1
	}
	checkAgainst(t, rt, tr, model)
}

// TestCommitRunSkipsInterleavedHolder: a foreign record inside a run's key
// range but on none of its keys does not block it. One thread holds the
// even keys of [0, 32); another commits the odd ones without a conflict.
func TestCommitRunSkipsInterleavedHolder(t *testing.T) {
	rt := stm.New(2, waitCM{})
	tr := New[int]()
	var evens, odds []int
	for k := 0; k < 32; k += 2 {
		evens, odds = append(evens, k), append(odds, k+1)
	}
	_, finish := holdThenFail(rt.Thread(0), tr, evens)
	done := make(chan stm.TxInfo, 1)
	go func() {
		done <- rt.Thread(1).Atomic(func(tx *stm.Tx) {
			for _, k := range odds {
				tr.Insert(tx, k, k)
			}
		})
	}()
	select {
	case info := <-done:
		if sem, _, _ := tr.Stats(); sem != 0 || info.Aborts() != 0 {
			t.Errorf("odd-key committer met %d conflicts and %d aborts, want none", sem, info.Aborts())
		}
		finish()
	case <-time.After(10 * time.Second):
		t.Error("the odd-key committer is still blocked by the even-key holder")
		finish()
		<-done
	}
	model := map[int]int{}
	for _, k := range odds {
		model[k] = k
	}
	checkAgainst(t, rt, tr, model)
}

// TestCommitRunAbortLeavesNoRecord: an attempt that holds 16 records and
// then aborts unlinks every one of them, including those another
// committer's splits moved one and two leaves right of the leaf they were
// linked in.
func TestCommitRunAbortLeavesNoRecord(t *testing.T) {
	rt := newTestRT(t, 2)
	tr := New[int]()
	model := map[int]int{}
	keys := make([]int, maxKeys) // one full leaf: 0, 100, …, 3300
	for i := range keys {
		keys[i] = 100 * i
		model[keys[i]] = 10 * keys[i]
	}
	fill(rt.Thread(0), tr, keys, 1)
	holder, finish := holdThenFail(rt.Thread(0), tr, keys[maxKeys-16:])

	// Ascending inserts just below 3300 split the leaf at the middle, then
	// fill and split its sibling at the run.
	for k := 3201; k <= 3200+maxKeys/2+2; k++ {
		rt.Thread(1).Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, k) })
		model[k] = k
	}
	held := recordsOf(tr, holder)
	if held[0] != 0 || sum(held) != 16 || len(held) < 3 || held[len(held)-1] == 0 {
		t.Fatalf("setup: the holder's records per leaf are %v, want all 16 moved out of the first leaf, some two leaves right", held)
	}
	finish()
	if n := sum(recordsOf(tr, holder)); n != 0 {
		t.Errorf("the aborted attempt left %d records behind", n)
	}
	checkAgainst(t, rt, tr, model)
}

// TestCommitRunSplitsMidRun: a run of 18 writes to one leaf of 33 keys
// fills it after one insert and splits at the second; the rest of the run
// lands in the split-off right leaf. Inserts, an update and a delete share
// the run.
func TestCommitRunSplitsMidRun(t *testing.T) {
	rt := newTestRT(t, 1)
	th := rt.Thread(0)
	tr := New[int]()
	model := map[int]int{}
	var keys []int
	for k := 0; k < 330; k += 10 {
		keys = append(keys, k)
		model[k] = 10 * k
	}
	fill(th, tr, keys, len(keys))
	if tr.leftmostLeaf().right != nil {
		t.Fatal("setup: the preload split its leaf")
	}
	th.Atomic(func(tx *stm.Tx) {
		for k := 315; k >= 165; k -= 10 { // descending, so Validate has to sort
			tr.Insert(tx, k, -k)
		}
		tr.Insert(tx, 200, 1)
		tr.Delete(tx, 300)
	})
	for k := 165; k <= 315; k += 10 {
		model[k] = -k
	}
	model[200] = 1
	delete(model, 300)
	if _, smo, _ := tr.Stats(); smo == 0 {
		t.Error("the run split no leaf")
	}
	if l := len(recordsOf(tr, nil)); l != 2 { // one entry per leaf
		t.Errorf("%d leaves after the run, want 2", l)
	}
	checkAgainst(t, rt, tr, model)
}

// TestCommitRunConcurrentGroups: two threads write and read 16-key groups —
// every other key of a 32-key block, so a group's range interleaves with
// its sibling group's keys — each written whole under one nonce. Every group
// a transaction reads carries one nonce, and no lock record is left at
// quiescence.
func TestCommitRunConcurrentGroups(t *testing.T) {
	const (
		blocks = 8
		rounds = 300
	)
	rt := newTestRT(t, 2)
	rt.SetYieldEvery(4)
	tr := New[int]()
	group := func(r *rng.Rand) (base int) { return 32*r.Intn(blocks) + r.Intn(2) }
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		for k := 0; k < 32*blocks; k++ {
			tr.Insert(tx, k, 0)
		}
	})
	var wg sync.WaitGroup
	torn := make([]int, 2)
	for id := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th, r := rt.Thread(id), rng.New(uint64(id)+1)
			for i := 1; i <= rounds; i++ {
				g, nonce := group(r), id<<20|i
				th.Atomic(func(tx *stm.Tx) {
					for k := g; k < g+32; k += 2 {
						tr.Insert(tx, k, nonce)
					}
				})
				g = group(r)
				mixed := false
				th.Atomic(func(tx *stm.Tx) {
					mixed = false
					first, _ := tr.Get(tx, g)
					for k := g + 2; k < g+32; k += 2 {
						v, _ := tr.Get(tx, k)
						mixed = mixed || v != first
					}
				})
				if mixed {
					torn[id]++
				}
			}
		}()
	}
	wg.Wait()
	if torn[0]+torn[1] != 0 {
		t.Errorf("%v groups read under more than one nonce", torn)
	}
	for i, n := range recordsOf(tr, nil) {
		if n != 0 {
			t.Errorf("leaf %d holds %d dead records at quiescence", i, n)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkCommitRun16 commits one transaction per op that upserts 16
// ascending keys of a 1,024-key tree: an MSET(16) group, homed in one or
// two leaves.
func BenchmarkCommitRun16(b *testing.B) {
	th := newTestRT(b, 1).Thread(0)
	tr := New[int]()
	keys := make([]int, 1024)
	for i := range keys {
		keys[i] = i
	}
	fill(th, tr, keys, 16)
	g := 0
	mset := func(tx *stm.Tx) {
		for k := g; k < g+16; k++ {
			tr.Insert(tx, k, k)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		g = 16 * (i % 64)
		th.Atomic(mset)
	}
}
