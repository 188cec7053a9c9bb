package stm_test

import (
	"sync"
	"testing"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

// TestStressMixedFootprints runs transactions of wildly different sizes
// (1–32 variables) against each other and checks a global conservation
// invariant: every transaction moves value between variables without
// creating or destroying any.
func TestStressMixedFootprints(t *testing.T) {
	t.Run("visible", func(t *testing.T) {
		const m, vars, perThread, initial = 6, 64, 150, 100
		mgr, err := cm.New("polka", m)
		if err != nil {
			t.Fatal(err)
		}
		rt := stm.New(m, mgr)
		rt.SetYieldEvery(4)
		vs := make([]*stm.TVar[int], vars)
		for i := range vs {
			vs[i] = stm.NewTVar(initial)
		}
		var wg sync.WaitGroup
		for i := 0; i < m; i++ {
			wg.Add(1)
			go func(id int, th *stm.Thread) {
				defer wg.Done()
				seed := uint64(id)*48271 + 11
				next := func(n int) int {
					seed = seed*6364136223846793005 + 1442695040888963407
					return int((seed >> 33) % uint64(n))
				}
				for j := 0; j < perThread; j++ {
					// Pick 2..32 distinct variables; rotate one unit of
					// value around the cycle (net zero).
					k := 2 + next(31)
					idx := make([]int, 0, k)
					seen := map[int]bool{}
					for len(idx) < k {
						v := next(vars)
						if !seen[v] {
							seen[v] = true
							idx = append(idx, v)
						}
					}
					th.Atomic(func(tx *stm.Tx) {
						first := stm.Read(tx, vs[idx[0]])
						for n := 0; n < len(idx)-1; n++ {
							nextVal := stm.Read(tx, vs[idx[n+1]])
							stm.Write(tx, vs[idx[n]], nextVal)
							_ = first
						}
						stm.Write(tx, vs[idx[len(idx)-1]], first)
					})
				}
			}(i, rt.Thread(i))
		}
		wg.Wait()
		total := 0
		for _, v := range vs {
			total += v.Peek()
		}
		if total != vars*initial {
			t.Errorf("total = %d, want %d (value not conserved)", total, vars*initial)
		}
	})
}
