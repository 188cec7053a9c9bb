package bench_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"wincm/internal/cm"
	"wincm/internal/rng"
	"wincm/internal/stm"
	"wincm/internal/txbtree"
	"wincm/internal/txmap"
)

// omap is the common face of the two transactional ordered maps, used by
// the conformance suite to drive them through identical operation
// streams. rangeKeys collects the keys in [lo, hi) in ascending order.
type omap interface {
	name() string
	get(tx *stm.Tx, key int) (int, bool)
	insert(tx *stm.Tx, key, val int) bool
	delete(tx *stm.Tx, key int) bool
	rangeKeys(tx *stm.Tx, lo, hi int, out *[]int)
	keys() []int
}

type rbAdapter struct{ t *txmap.Tree[int] }

func (a rbAdapter) name() string                      { return "txmap" }
func (a rbAdapter) get(tx *stm.Tx, k int) (int, bool) { return a.t.Get(tx, k) }

// insert upserts: txmap.Insert leaves an existing binding untouched
// (set semantics), while the suite — like txbtree.Insert — speaks upsert,
// so a present key routes through Update.
func (a rbAdapter) insert(tx *stm.Tx, k, v int) bool {
	if a.t.Insert(tx, k, v) {
		return true
	}
	a.t.Update(tx, k, v)
	return false
}
func (a rbAdapter) delete(tx *stm.Tx, k int) bool { return a.t.Delete(tx, k) }
func (a rbAdapter) rangeKeys(tx *stm.Tx, lo, hi int, out *[]int) {
	// txmap.Range is inclusive of hi; the suite speaks half-open [lo, hi).
	a.t.Range(tx, lo, hi-1, func(k, v int) bool { *out = append(*out, k); return true })
}
func (a rbAdapter) keys() []int {
	snap := a.t.Snapshot()
	ks := make([]int, len(snap))
	for i, kv := range snap {
		ks[i] = kv.Key
	}
	return ks
}

type btAdapter struct{ t *txbtree.Tree[int] }

func (a btAdapter) name() string                      { return "txbtree" }
func (a btAdapter) get(tx *stm.Tx, k int) (int, bool) { return a.t.Get(tx, k) }
func (a btAdapter) insert(tx *stm.Tx, k, v int) bool  { return a.t.Insert(tx, k, v) }
func (a btAdapter) delete(tx *stm.Tx, k int) bool     { return a.t.Delete(tx, k) }
func (a btAdapter) rangeKeys(tx *stm.Tx, lo, hi int, out *[]int) {
	a.t.Scan(tx, lo, hi, func(k, v int) bool { *out = append(*out, k); return true })
}
func (a btAdapter) keys() []int { return a.t.Keys() }

func confRT(t testing.TB, m int) *stm.Runtime {
	t.Helper()
	mgr, err := cm.New("polka", m)
	if err != nil {
		t.Fatal(err)
	}
	return stm.New(m, mgr)
}

// TestOrderedMapConformance drives each transactional ordered map through
// a randomized single-thread operation stream — insert, delete, lookup,
// range — and checks every result against a plain map+sort reference
// model.
func TestOrderedMapConformance(t *testing.T) {
	// The lone "eager" level is the protocol's name, kept from when a second
	// engine ran here too, so test names are stable.
	t.Run("eager", func(t *testing.T) {
		maps := []omap{
			rbAdapter{t: txmap.New[int]()},
			btAdapter{t: txbtree.New[int]()},
		}
		for _, m := range maps {
			t.Run(m.name(), func(t *testing.T) {
				rt := confRT(t, 1)
				th := rt.Thread(0)
				ref := map[int]int{}
				r := rng.New(0xC04F04)
				const (
					ops      = 6000
					keyRange = 512
				)
				var got []int
				for i := 0; i < ops; i++ {
					k := r.Intn(keyRange)
					switch r.Intn(8) {
					case 0, 1, 2: // insert
						var wasAbsent bool
						th.Atomic(func(tx *stm.Tx) {
							wasAbsent = m.insert(tx, k, i)
						})
						_, had := ref[k]
						if wasAbsent == had {
							t.Fatalf("%s: Insert(%d) absent=%v, model had=%v", m.name(), k, wasAbsent, had)
						}
						ref[k] = i
					case 3, 4: // delete
						var wasPresent bool
						th.Atomic(func(tx *stm.Tx) {
							wasPresent = m.delete(tx, k)
						})
						if _, had := ref[k]; wasPresent != had {
							t.Fatalf("%s: Delete(%d) present=%v, model had=%v", m.name(), k, wasPresent, had)
						}
						delete(ref, k)
					case 5, 6: // lookup
						var v int
						var ok bool
						th.Atomic(func(tx *stm.Tx) {
							v, ok = m.get(tx, k)
						})
						want, had := ref[k]
						if ok != had || (ok && v != want) {
							t.Fatalf("%s: Get(%d) = %d,%v, model %d,%v", m.name(), k, v, ok, want, had)
						}
					default: // range
						lo := k
						hi := lo + 1 + r.Intn(64)
						got = got[:0]
						th.Atomic(func(tx *stm.Tx) {
							got = got[:0]
							m.rangeKeys(tx, lo, hi, &got)
						})
						var want []int
						for rk := range ref {
							if rk >= lo && rk < hi {
								want = append(want, rk)
							}
						}
						sort.Ints(want)
						if len(got) != len(want) {
							t.Fatalf("%s: range[%d,%d) = %v, model %v", m.name(), lo, hi, got, want)
						}
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("%s: range[%d,%d) = %v, model %v", m.name(), lo, hi, got, want)
							}
						}
					}
				}
				final := m.keys()
				if len(final) != len(ref) {
					t.Fatalf("%s: final size %d, model %d", m.name(), len(final), len(ref))
				}
				for _, k := range final {
					if _, ok := ref[k]; !ok {
						t.Fatalf("%s: final state holds key %d the model lacks", m.name(), k)
					}
				}
			})
		}
	})
}

// TestOrderedMapConformanceConcurrent is the cross-structure check under
// real contention: every transaction applies the same operation to BOTH
// ordered maps, so the serialized commit order is shared and the two
// structures must agree operation by operation — the tvar-granularity
// red-black tree and the key-granularity B-link tree each acting as the
// other's reference model. Final key sets must be identical.
func TestOrderedMapConformanceConcurrent(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		const (
			m        = 6
			perThr   = 500
			keyRange = 128
		)
		rt := confRT(t, m)
		rt.SetYieldEvery(2)
		rb := rbAdapter{t: txmap.New[int]()}
		bt := btAdapter{t: txbtree.New[int]()}
		var (
			wg       sync.WaitGroup
			mismatch sync.Once
			failMsg  string
		)
		for id := 0; id < m; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				th := rt.Thread(id)
				r := rng.New(uint64(id)*991 + 7)
				var rks, bks []int
				for i := 0; i < perThr; i++ {
					k := r.Intn(keyRange)
					op := r.Intn(8)
					lo := r.Intn(keyRange)
					hi := lo + 1 + r.Intn(32)
					var disagree string
					th.Atomic(func(tx *stm.Tx) {
						disagree = ""
						switch op {
						case 0, 1, 2:
							ra, ba := rb.insert(tx, k, i), bt.insert(tx, k, i)
							if ra != ba {
								disagree = fmt.Sprintf("Insert(%d): txmap absent=%v, txbtree absent=%v", k, ra, ba)
							}
						case 3, 4:
							ra, ba := rb.delete(tx, k), bt.delete(tx, k)
							if ra != ba {
								disagree = fmt.Sprintf("Delete(%d): txmap present=%v, txbtree present=%v", k, ra, ba)
							}
						case 5, 6:
							rv, rok := rb.get(tx, k)
							bv, bok := bt.get(tx, k)
							if rok != bok || (rok && rv != bv) {
								disagree = fmt.Sprintf("Get(%d): txmap %d,%v txbtree %d,%v", k, rv, rok, bv, bok)
							}
						default:
							rks, bks = rks[:0], bks[:0]
							rb.rangeKeys(tx, lo, hi, &rks)
							bt.rangeKeys(tx, lo, hi, &bks)
							if len(rks) != len(bks) {
								disagree = fmt.Sprintf("range[%d,%d): txmap %v, txbtree %v", lo, hi, rks, bks)
							} else {
								for j := range rks {
									if rks[j] != bks[j] {
										disagree = fmt.Sprintf("range[%d,%d): txmap %v, txbtree %v", lo, hi, rks, bks)
										break
									}
								}
							}
						}
					})
					if disagree != "" {
						var after string
						th.Atomic(func(tx *stm.Tx) {
							rv, rok := rb.get(tx, k)
							bv, bok := bt.get(tx, k)
							rks, bks = rks[:0], bks[:0]
							rb.rangeKeys(tx, lo, hi, &rks)
							bt.rangeKeys(tx, lo, hi, &bks)
							after = fmt.Sprintf("re-read: txmap %d,%v txbtree %d,%v; re-range[%d,%d): txmap %v txbtree %v",
								rv, rok, bv, bok, lo, hi, rks, bks)
						})
						mismatch.Do(func() {
							failMsg = "txmap and txbtree disagreed inside one transaction: " + disagree + "; " + after
						})
						return
					}
				}
			}(id)
		}
		wg.Wait()
		if failMsg != "" {
			t.Fatal(failMsg)
		}
		rk, bk := rb.keys(), bt.keys()
		if len(rk) != len(bk) {
			t.Fatalf("final key sets differ: txmap %d keys, txbtree %d keys", len(rk), len(bk))
		}
		for i := range rk {
			if rk[i] != bk[i] {
				t.Fatalf("final key sets diverge at index %d: txmap %d, txbtree %d", i, rk[i], bk[i])
			}
		}
		if err := bt.t.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := rb.t.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
