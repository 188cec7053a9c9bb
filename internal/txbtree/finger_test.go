package txbtree

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// Tests of the write finger: a write of a key at or above the thread's last
// written key and below the fence that write saw starts at the leaf that
// write latched; any other write descends.

// checkAgainst fails the test unless the quiescent tree passes
// CheckInvariants and holds exactly the keys and values of model.
func checkAgainst(t *testing.T, rt *stm.Runtime, tr *Tree[int], model map[int]int) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := slices.Sorted(maps.Keys(model))
	if got := tr.Keys(); !slices.Equal(got, want) {
		t.Fatalf("Keys() holds %d keys, the model %d; first 20: %v vs %v",
			len(got), len(want), got[:min(20, len(got))], want[:min(20, len(want))])
	}
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		tr.Scan(tx, math.MinInt, math.MaxInt, func(k, v int) bool {
			if v != model[k] {
				t.Errorf("key %d holds %d, want %d", k, v, model[k])
			}
			return true
		})
	})
}

// TestFingerFollowsSplit: thread A writes k, thread B splits A's finger
// leaf until k+1 lives two or more leaves to its right, then A writes k+1.
// The finger still covers k+1 (k+1 ≥ k, and the fence A saw is gone from
// the leaf but not from A's finger), so the write starts at the old leaf and
// must reach k+1's home by right links alone.
func TestFingerFollowsSplit(t *testing.T) {
	rt := newTestRT(t, 2)
	tr := New[int]()
	model := map[int]int{}
	a, b := rt.Thread(0), rt.Thread(1)
	keys := make([]int, maxKeys) // one full leaf: 0, 100, …, 3300
	for i := range keys {
		keys[i] = 100 * i
		model[keys[i]] = 10 * keys[i]
	}
	fill(b, tr, keys, 1)
	const k = 3000
	a.Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, -1) })
	model[k] = -1
	st := tr.state(0)
	finger := st.fleaf
	if finger != tr.leftmostLeaf() || st.fkey != k || finger.right != nil {
		t.Fatalf("setup: A's finger is not the single leaf at key %d", k)
	}
	// 50 splits the full leaf at its middle (B's insert does not continue
	// the leaf's last write, A's); 2001… then run through the right half
	// and split it again at the run.
	for _, key := range append([]int{50}, seq(2001, 2001+maxKeys/2+2)...) {
		b.Atomic(func(tx *stm.Tx) { tr.Insert(tx, key, 10*key) })
		model[key] = 10 * key
	}
	home, hops := finger, 0
	for home.past(k + 1) {
		home, hops = home.right, hops+1
	}
	if hops < 2 || k+1 < st.fkey || k+1 >= st.fhi {
		t.Fatalf("setup: key %d is %d leaves right of the finger (want ≥ 2); finger covers [%d, %d)",
			k+1, hops, st.fkey, st.fhi)
	}
	a.Atomic(func(tx *stm.Tx) { tr.Insert(tx, k+1, -2) })
	model[k+1] = -2
	if st.fleaf != home {
		t.Errorf("the finger did not move to key %d's home", k+1)
	}
	if i, ok := home.search(k + 1); !ok || home.vals[i] != -2 {
		t.Errorf("key %d did not land in its home", k+1)
	}
	checkAgainst(t, rt, tr, model)
}

// seq returns lo, lo+1, …, hi-1.
func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}

// TestFingerBoundsDescend: a write below the finger's key and one at or
// past the finger's cached fence must descend instead of starting at the
// finger's leaf.
func TestFingerBoundsDescend(t *testing.T) {
	// A real finger on the tree's second leaf: a key below its low bound
	// that started there would land in it, right of the key's home, where
	// CheckInvariants sees a key below its leaf's low bound.
	t.Run("below-key", func(t *testing.T) {
		rt := newTestRT(t, 1)
		tr := New[int]()
		model := map[int]int{}
		keys := seq(0, 2*maxKeys)
		for _, k := range keys {
			model[k] = 10 * k
		}
		fill(rt.Thread(0), tr, keys, 1)
		first := tr.leftmostLeaf()
		hi := first.hi
		if !first.hasHi || first.right == nil {
			t.Fatal("setup: the tree has one leaf")
		}
		rt.Thread(0).Atomic(func(tx *stm.Tx) { tr.Insert(tx, hi+1, -1) })
		model[hi+1] = -1
		if st := tr.state(0); st.fleaf != first.right || st.fkey != hi+1 {
			t.Fatalf("setup: the finger is not on the second leaf at key %d", hi+1)
		}
		// -5 is absent and below every key; 3 is present in the first leaf.
		for _, k := range []int{-5, 3} {
			rt.Thread(0).Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, -k) })
			model[k] = -k
			if st := tr.state(0); st.fleaf != first {
				t.Errorf("key %d: the finger is not on the first leaf, its home", k)
			}
			rt.Thread(0).Atomic(func(tx *stm.Tx) { tr.Insert(tx, hi+2, -1) }) // finger back right
			model[hi+2] = -1
		}
		checkAgainst(t, rt, tr, model)
	})
	// A write at or past the cached fence that started at the finger would
	// still reach its home by right links, so the finger here is a stand-in
	// leaf outside the tree, with no fence and no right link: a write that
	// uses it lands in the stand-in and is missing from the tree.
	t.Run("at-fence", func(t *testing.T) {
		rt := newTestRT(t, 1)
		tr := New[int]()
		model := map[int]int{}
		keys := make([]int, 100)
		for i := range keys {
			keys[i] = 10 * i
			model[keys[i]] = 10 * keys[i]
		}
		fill(rt.Thread(0), tr, keys, 1)
		standIn := &node[int]{}
		st := tr.state(0)
		point := func(lo, hi int) { st.fleaf, st.fkey, st.fhi = standIn, lo, hi }
		// Control: a key inside [fkey, fhi) is written to the stand-in.
		point(100, 200)
		rt.Thread(0).Atomic(func(tx *stm.Tx) { tr.Insert(tx, 155, 1) })
		if standIn.n != 1 || standIn.keys[0] != 155 {
			t.Fatalf("a key inside the finger's range did not start at the finger's leaf")
		}
		for _, k := range []int{200, 205, 99, 50} {
			point(100, 200)
			n := standIn.n
			rt.Thread(0).Atomic(func(tx *stm.Tx) { tr.Insert(tx, k, -k) })
			model[k] = -k
			if standIn.n != n {
				t.Errorf("key %d, outside the finger's [100, 200), started at the finger's leaf", k)
			}
		}
		checkAgainst(t, rt, tr, model)
	})
}

// TestFingerConcurrentRuns: writers append interleaved ascending runs — one
// residue class each, one to three keys per transaction, now and then
// rewriting a key of their own below the finger — while one more thread
// deletes and re-inserts keys of its own residue class in the same range,
// splitting and shrinking the leaves the writers' fingers point at. The
// tree must end equal to the model. Run it under -race.
func TestFingerConcurrentRuns(t *testing.T) {
	for _, writers := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("writers%d", writers), func(t *testing.T) {
			const perWriter = 1500
			stride := writers + 1
			rt := newTestRT(t, stride)
			rt.SetYieldEvery(3)
			tr := New[int]()
			models := make([]map[int]int, stride)
			var wg sync.WaitGroup
			for id := 0; id < stride; id++ {
				models[id] = map[int]int{}
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					th, r, m := rt.Thread(id), rng.New(uint64(id)*31+7), models[id]
					if id == writers {
						churn(th, tr, r, m, stride, perWriter)
						return
					}
					for j := 0; j < perWriter; {
						n := min(1+r.Intn(3), perWriter-j)
						back := -1
						if j > 0 && r.Intn(8) == 0 {
							back = id + stride*r.Intn(j)
						}
						th.Atomic(func(tx *stm.Tx) {
							for i := 0; i < n; i++ {
								k := id + stride*(j+i)
								tr.Insert(tx, k, k+j)
							}
							if back >= 0 {
								tr.Insert(tx, back, -back)
							}
						})
						for i := 0; i < n; i++ {
							k := id + stride*(j+i)
							m[k] = k + j
						}
						if back >= 0 {
							m[back] = -back
						}
						j += n
					}
				}(id)
			}
			wg.Wait()
			model := map[int]int{}
			for _, m := range models {
				maps.Copy(model, m)
			}
			checkAgainst(t, rt, tr, model)
		})
	}
}

// churn toggles random keys of residue class stride-1 in the writers'
// range: a present key is deleted, an absent one inserted, one or two per
// transaction. m is left holding the keys present at the end.
func churn(th *stm.Thread, tr *Tree[int], r *rng.Rand, m map[int]int, stride, perWriter int) {
	for round := 0; round < perWriter; round++ {
		ks := []int{stride - 1 + stride*r.Intn(perWriter), stride - 1 + stride*r.Intn(perWriter)}
		ks = slices.Compact(ks[:1+r.Intn(2)])
		th.Atomic(func(tx *stm.Tx) {
			for _, k := range ks {
				if _, ok := m[k]; ok {
					tr.Delete(tx, k)
				} else {
					tr.Insert(tx, k, round)
				}
			}
		})
		for _, k := range ks {
			if _, ok := m[k]; ok {
				delete(m, k)
			} else {
				m[k] = round
			}
		}
	}
}

// TestTwoSessionPreloadPacksLeaves: kv-point's preload shape — two
// sessions, each writing one ascending half of the keyspace one key per
// transaction, into four shards routed by kv's hash, each shard a tree
// under its own two-thread runtime with each session on its own thread —
// leaves every shard at most 5% above keys/maxKeys leaves. Ascending
// writes cut a full leaf at the write (node.split), so only the leaves
// where the two halves meet are left part full; a shard packed at half
// fill would read about twice the bound.
func TestTwoSessionPreloadPacksLeaves(t *testing.T) {
	const shards, keys = 4, 200_000
	// shardOf is kv's routing: the splitmix64 finalizer mod the shards.
	shardOf := func(k int) int {
		z := uint64(k) + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % shards)
	}
	rts, trees := make([]*stm.Runtime, shards), make([]*Tree[int], shards)
	for i := range trees {
		rts[i], trees[i] = newTestRT(t, 2), New[int]()
	}
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := s * keys / 2; k < (s+1)*keys/2; k++ {
				i := shardOf(k)
				rts[i].Thread(s).Atomic(func(tx *stm.Tx) { trees[i].Insert(tx, k, k) })
			}
		}(s)
	}
	wg.Wait()
	for i, tr := range trees {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		leaves := 0
		for nd := tr.leftmostLeaf(); nd != nil; nd = nd.right {
			leaves++
		}
		n := tr.Len()
		t.Logf("shard %d: %d keys in %d leaves", i, n, leaves)
		if limit := 1.05 * float64(n) / maxKeys; float64(leaves) > limit {
			t.Errorf("shard %d: %d keys in %d leaves, want at most %.0f (%.1f keys per leaf)", i, n, leaves, limit, float64(n)/float64(leaves))
		}
	}
}
