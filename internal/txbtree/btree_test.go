package txbtree_test

import (
	"sort"
	"sync"
	"testing"

	"wincm/internal/cm"
	"wincm/internal/rng"
	"wincm/internal/stm"
	"wincm/internal/txbtree"
)

func newRT(t testing.TB, m int) *stm.Runtime {
	t.Helper()
	mgr, err := cm.New("polka", m)
	if err != nil {
		t.Fatal(err)
	}
	return stm.New(m, mgr)
}

func TestBasicOps(t *testing.T) {
	// The lone "eager" level is the protocol's name, kept from when a second
	// engine ran here too, so test names are stable.
	t.Run("eager", func(t *testing.T) {
		rt := newRT(t, 1)
		th := rt.Thread(0)
		tr := txbtree.New[int]()
		const n = 2000
		for i := 0; i < n; i++ {
			k := (i * 7919) % n // shuffled insertion order forces splits everywhere
			th.Atomic(func(tx *stm.Tx) {
				if !tr.Insert(tx, k, k*10) {
					t.Errorf("Insert(%d) reported present on first insert", k)
				}
			})
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := tr.Len(); got != n {
			t.Fatalf("Len = %d, want %d", got, n)
		}
		th.Atomic(func(tx *stm.Tx) {
			if v, ok := tr.Get(tx, 1234); !ok || v != 12340 {
				t.Errorf("Get(1234) = %d,%v want 12340,true", v, ok)
			}
			if tr.Contains(tx, n) {
				t.Errorf("Contains(%d) = true for absent key", n)
			}
			if tr.Insert(tx, 50, 999) {
				t.Errorf("Insert(50) reported absent on re-insert")
			}
		})
		th.Atomic(func(tx *stm.Tx) {
			if v, _ := tr.Get(tx, 50); v != 999 {
				t.Errorf("Get(50) = %d after upsert, want 999", v)
			}
		})
		// Delete every third key; a delete inside the same transaction as
		// a lookup must be visible to the transaction's own reads.
		for k := 0; k < n; k += 3 {
			th.Atomic(func(tx *stm.Tx) {
				if !tr.Delete(tx, k) {
					t.Errorf("Delete(%d) reported absent", k)
				}
				if tr.Contains(tx, k) {
					t.Errorf("Contains(%d) = true after own delete", k)
				}
			})
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		keys := tr.Keys()
		if !sort.IntsAreSorted(keys) {
			t.Fatal("Keys() not sorted")
		}
		for _, k := range keys {
			if k%3 == 0 {
				t.Fatalf("deleted key %d still present", k)
			}
		}
		// Scan must agree with Keys on a sub-range and honor buffered writes.
		th.Atomic(func(tx *stm.Tx) {
			tr.Insert(tx, 3, -1) // buffered re-insert of a deleted key
			var got []int
			tr.Scan(tx, 0, 10, func(k, v int) bool { got = append(got, k); return true })
			want := []int{1, 2, 3, 4, 5, 7, 8}
			if len(got) != len(want) {
				t.Fatalf("Scan[0,10) = %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Scan[0,10) = %v, want %v", got, want)
				}
			}
		})
		th.Atomic(func(tx *stm.Tx) {
			if v, ok := tr.Get(tx, 3); !ok || v != -1 {
				t.Errorf("Get(3) = %d,%v after committed re-insert, want -1,true", v, ok)
			}
		})
	})
}

// TestSplitsAbortNothing is the structural-ops acceptance test: M threads
// insert disjoint key ranges — zero key-level conflicts by construction —
// with enough volume to force leaf splits, inner splits and root growth.
// Every one of those structural modifications stays out of the conflict
// sets, so not a single transaction may abort, and the tree's counters
// must show the work happened (structural ops > 0, semantic conflicts 0).
func TestSplitsAbortNothing(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		const (
			m      = 8
			perThr = 3000
		)
		rt := newRT(t, m)
		tr := txbtree.New[int]()
		var wg sync.WaitGroup
		aborts := make([]int, m)
		for id := 0; id < m; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
				for i := 0; i < perThr; i++ {
					k := id*perThr + i
					info := th.Atomic(func(tx *stm.Tx) {
						tr.Insert(tx, k, k)
					})
					aborts[id] += info.Aborts()
				}
			}(id)
		}
		wg.Wait()
		total := 0
		for _, a := range aborts {
			total += a
		}
		if total != 0 {
			t.Errorf("disjoint-key inserts aborted %d times; structural ops leaked into a conflict set", total)
		}
		sem, smo, _ := tr.Stats()
		if sem != 0 {
			t.Errorf("semantic conflicts = %d, want 0 for disjoint keys", sem)
		}
		if smo == 0 {
			t.Error("structural ops = 0; the workload did not force splits")
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got, want := tr.Len(), m*perThr; got != want {
			t.Fatalf("Len = %d, want %d", got, want)
		}
	})
}

// TestCounterSerializes drives every thread through read-modify-write
// transactions on one hot key; key-level validation must serialize them
// so no increment is lost.
func TestCounterSerializes(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		const (
			m      = 8
			perThr = 400
		)
		rt := newRT(t, m)
		rt.SetYieldEvery(1) // force fine-grained interleaving on small hosts
		tr := txbtree.New[int]()
		var wg sync.WaitGroup
		for id := 0; id < m; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
				for i := 0; i < perThr; i++ {
					th.Atomic(func(tx *stm.Tx) {
						v, _ := tr.Get(tx, 42)
						tr.Insert(tx, 42, v+1)
					})
				}
			}(id)
		}
		wg.Wait()
		var got int
		rt.Thread(0).Atomic(func(tx *stm.Tx) {
			got, _ = tr.Get(tx, 42)
		})
		if want := m * perThr; got != want {
			t.Fatalf("counter = %d, want %d (lost updates)", got, want)
		}
	})
}

// TestScanPairInvariant stresses phantom protection: writers atomically
// toggle key pairs (2k, 2k+1) — insert both or delete both — while
// scanners verify every observed even key has its odd partner. A scan
// that misses an in-flight insert (a phantom) or sees half a toggle
// breaks the pairing.
func TestScanPairInvariant(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		const (
			writers = 4
			readers = 3
			pairs   = 64
			rounds  = 300
		)
		rt := newRT(t, writers+readers)
		rt.SetYieldEvery(1)
		tr := txbtree.New[int]()
		var wg sync.WaitGroup
		for id := 0; id < writers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
				r := rng.New(uint64(id)*77 + 1)
				for i := 0; i < rounds; i++ {
					k := 2 * r.Intn(pairs)
					th.Atomic(func(tx *stm.Tx) {
						if tr.Contains(tx, k) {
							tr.Delete(tx, k)
							tr.Delete(tx, k+1)
						} else {
							tr.Insert(tx, k, i)
							tr.Insert(tx, k+1, i)
						}
					})
				}
			}(id)
		}
		bad := make([]int, readers)
		for id := 0; id < readers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(writers + id)
				for i := 0; i < rounds; i++ {
					var seen []int
					th.Atomic(func(tx *stm.Tx) {
						seen = seen[:0]
						tr.Scan(tx, 0, 2*pairs, func(k, v int) bool {
							seen = append(seen, k)
							return true
						})
					})
					present := map[int]bool{}
					for _, k := range seen {
						present[k] = true
					}
					for _, k := range seen {
						if !present[k^1] {
							bad[id]++
						}
					}
				}
			}(id)
		}
		wg.Wait()
		for id, n := range bad {
			if n > 0 {
				t.Errorf("reader %d saw %d unpaired keys (phantom or torn toggle)", id, n)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFalseConflictAvoidance shows the point of the key-level slow path:
// threads hammer disjoint keys that share leaves, so leaf versions churn
// under every committing reader — and the recheck proves the reads stand,
// avoiding the aborts a node-granularity structure would take.
func TestFalseConflictAvoidance(t *testing.T) {
	const (
		m      = 4
		perThr = 800
		span   = 8 // keys interleave within leaves
	)
	rt := newRT(t, m)
	rt.SetYieldEvery(1)
	tr := txbtree.New[int]()
	var wg sync.WaitGroup
	for id := 0; id < m; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			th := rt.Thread(id)
			for i := 0; i < perThr; i++ {
				k := (i%span)*m + id // same leaves, disjoint keys
				th.Atomic(func(tx *stm.Tx) {
					v, _ := tr.Get(tx, k)
					tr.Insert(tx, k, v+1)
				})
			}
		}(id)
	}
	wg.Wait()
	sem, _, avoided := tr.Stats()
	if sem != 0 {
		t.Errorf("semantic conflicts = %d, want 0 for disjoint keys", sem)
	}
	if avoided == 0 {
		t.Error("false-conflicts-avoided = 0; expected leaf-version churn with valid reads")
	}
	var total int
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		total = 0
		tr.Scan(tx, 0, span*m, func(k, v int) bool { total += v; return true })
	})
	if want := m * perThr; total != want {
		t.Fatalf("sum of counters = %d, want %d", total, want)
	}
}
