package kv

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"wincm/internal/telemetry"
)

// TestSessionsOutnumberThreads: six sessions share shards of one or two
// threads with a mix of GET, SET, MSET and SCAN, so claims find every
// thread taken and park. Every operation completes with its own writes
// visible, and once the sessions are done every shard's threads are idle
// again (wincm_kv_pool_idle = ShardThreads) with no claimer left queued.
func TestSessionsOutnumberThreads(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			st := testStore(t, Options{Shards: 3, ShardThreads: threads, Seed: 3})
			yieldEvery(st, 4)
			r := telemetry.NewRegistry()
			RegisterStoreGauges(r, st)
			const sessions, rounds = 6, 200
			var wg sync.WaitGroup
			for w := 0; w < sessions; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					se := st.NewSession()
					// Each session owns keys [base, base+8): its reads of
					// them must see its own last writes.
					base := int64(w * 8)
					keys := []int64{base + 4, base + 5, base + 6, base + 7}
					vals := make([]int64, len(keys))
					present := make([]bool, len(keys))
					for i := int64(1); i <= rounds; i++ {
						k := base + i%4
						se.Set(k, i)
						if v, ok := se.Get(k); !ok || v != i {
							t.Errorf("session %d: Get(%d) = %d, %v after Set %d", w, k, v, ok, i)
							return
						}
						for j := range vals {
							vals[j] = i
						}
						if err := se.MSet(keys, vals); err != nil {
							t.Errorf("session %d: MSet: %v", w, err)
							return
						}
						if err := se.MGet(keys, vals, present); err != nil {
							t.Errorf("session %d: MGet: %v", w, err)
							return
						}
						for j := range keys {
							if !present[j] || vals[j] != i {
								t.Errorf("session %d: MGet key %d = %d, %v after MSet %d", w, keys[j], vals[j], present[j], i)
								return
							}
						}
						n, err := se.Scan(base, base+8, 8)
						if err != nil || n < len(keys) {
							t.Errorf("session %d: Scan = %d, %v", w, n, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			snap := r.Snapshot()
			for i, sh := range st.shards {
				if got := snap.Gauges[fmt.Sprintf(`wincm_kv_pool_idle{shard="%d"}`, i)]; got != float64(threads) {
					t.Errorf("shard %d: pool_idle = %v, want %d", i, got, threads)
				}
				if n := sh.nwait.Load(); n != 0 || len(sh.waiters) != 0 {
					t.Errorf("shard %d: %d claimers counted, %d queued after the sessions left", i, n, len(sh.waiters))
				}
			}
		})
	}
}

// TestClaimServesWaitersInArrivalOrder: with the only thread of a shard
// held, two claimers park in a known order, and each release hands the
// thread to the one that has waited longest.
func TestClaimServesWaitersInArrivalOrder(t *testing.T) {
	sh := testStore(t, Options{Shards: 1, ShardThreads: 1}).shards[0]
	queued := func() int {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return len(sh.waiters)
	}
	held := sh.claim(0, make(chan *threadSlot, 1))
	served := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			if ts := sh.claim(0, make(chan *threadSlot, 1)); ts != held {
				t.Errorf("claimer %d got a thread the shard does not have", i)
			}
			served <- i
		}()
		for queued() != i+1 {
			runtime.Gosched()
		}
	}
	if idle := sh.idle(); idle != 0 {
		t.Fatalf("idle = %d while the thread is held, want 0", idle)
	}
	for want := 0; want < 2; want++ {
		sh.release(held)
		if got := <-served; got != want {
			t.Fatalf("release %d served claimer %d, want %d", want+1, got, want)
		}
		if idle := sh.idle(); idle != 0 {
			t.Fatalf("idle = %d with the thread handed over, want 0", idle)
		}
	}
	sh.release(held)
	if idle, n := sh.idle(), sh.nwait.Load(); idle != 1 || n != 0 {
		t.Fatalf("after the last release: idle = %d, nwait = %d, want 1, 0", idle, n)
	}
}
