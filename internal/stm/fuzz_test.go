package stm_test

import (
	"sync"
	"testing"
	"testing/quick"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

// TestQuickSerializableHistories is a property-based serializability
// check: random concurrent transactions each read a vector of variables
// maintained under the invariant "all equal", then write the incremented
// value to all of them. Any non-serializable execution breaks the
// all-equal invariant permanently, and any lost update shows up in the
// final counter value.
func TestQuickSerializableHistories(t *testing.T) {
	f := func(seed uint64, threadsRaw, varsRaw uint8) bool {
		threads := 2 + int(threadsRaw)%4
		vars := 1 + int(varsRaw)%5
		mgr, err := cm.New("polka", threads)
		if err != nil {
			return false
		}
		rt := stm.New(threads, mgr)
		rt.SetYieldEvery(2)
		// Force recycling on: these runs are oversubscribed on small
		// machines, and the histories must stay serializable with locators
		// being reused underneath.
		stm.ForceLocatorPooling(rt)
		vs := make([]*stm.TVar[int], vars)
		for i := range vs {
			vs[i] = stm.NewTVar(0)
		}
		const perThread = 25
		ok := true
		var mu sync.Mutex
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(th *stm.Thread) {
				defer wg.Done()
				for j := 0; j < perThread; j++ {
					th.Atomic(func(tx *stm.Tx) {
						base := stm.Read(tx, vs[0])
						for _, v := range vs[1:] {
							if stm.Read(tx, v) != base {
								mu.Lock()
								ok = false
								mu.Unlock()
							}
						}
						for _, v := range vs {
							stm.Write(tx, v, base+1)
						}
					})
				}
			}(rt.Thread(i))
		}
		wg.Wait()
		want := threads * perThread
		for _, v := range vs {
			if v.Peek() != want {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 18}); err != nil {
		t.Error(err)
	}
}
