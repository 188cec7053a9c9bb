package stm

import (
	"math/rand"
	"runtime"
	"testing"
)

// Pool tests run white-box (package stm): they drive a locatorPool
// directly, pin and unpin epoch slots by hand, and inspect the free list —
// none of which the public API exposes. The runtime is idle throughout, so
// the only pins gracePassed can see are the ones each test plants.

// poolHarness builds an idle runtime plus a detached pool for it.
func poolHarness(threads int) (*Runtime, *locatorPool[int]) {
	rt := New(threads, karmaTied{})
	return rt, &locatorPool[int]{th: rt.Thread(0)}
}

// TestPoolSealReclaimReuse covers the happy path: with no pins anywhere, a
// full retire batch seals and reclaims immediately, the recycled locators
// come back poisoned, and get returns exactly the pointers that were
// retired — no invention, no loss.
func TestPoolSealReclaimReuse(t *testing.T) {
	rt, p := poolHarness(2)
	retired := make(map[*locator[int]]bool, retireBatchSize)
	for i := 0; i < retireBatchSize; i++ {
		l := &locator[int]{oldVal: i, newVal: i + 1, version: uint64(i) + 10}
		retired[l] = true
		p.retire(l)
	}
	if p.pending() != 0 {
		t.Fatalf("batch did not reclaim with no pins held: %d pending", p.pending())
	}
	if p.freeLen != retireBatchSize {
		t.Fatalf("free list holds %d, want %d", p.freeLen, retireBatchSize)
	}
	if got := rt.RetiredLocators(); got != 0 {
		t.Fatalf("retired gauge = %d after reclaim, want 0", got)
	}
	for i := 0; i < retireBatchSize; i++ {
		l := p.get()
		if l == nil {
			t.Fatalf("get %d missed with %d locators recycled", i, retireBatchSize)
		}
		if !retired[l] {
			t.Fatalf("get returned a locator that was never retired")
		}
		delete(retired, l)
		if l.version != poisonVersion || l.owner != nil || l.oldVal != 0 || l.newVal != 0 {
			t.Fatalf("recycled locator not poisoned: %+v", l)
		}
	}
	if l := p.get(); l != nil {
		t.Fatalf("get returned %p from an empty pool", l)
	}
}

// TestPoolPinBlocksReclaim is the core EBR safety check: a slot pinned at
// an epoch ≤ the batch tag keeps the batch unreclaimable, and clearing the
// pin releases it.
func TestPoolPinBlocksReclaim(t *testing.T) {
	rt, p := poolHarness(2)
	slot := &rt.epochSlots[1].v
	slot.Store(pinWord(poolEpoch.v.Load()))
	for i := 0; i < retireBatchSize; i++ {
		p.retire(&locator[int]{version: 3})
	}
	if p.pending() != retireBatchSize {
		t.Fatalf("pinned slot did not block reclaim: %d pending", p.pending())
	}
	if l := p.get(); l != nil {
		t.Fatalf("get recycled a locator under an older pin")
	}
	slot.Store(slot.Load() &^ pinnedBit)
	if l := p.get(); l == nil {
		t.Fatalf("get missed after the blocking pin cleared")
	}
}

// TestPoolPinAfterSealDoesNotBlock checks the other half of the epoch
// argument: a pin taken after the batch sealed carries a younger epoch
// (seal ticks the clock) and must not delay reclamation.
func TestPoolPinAfterSealDoesNotBlock(t *testing.T) {
	rt, p := poolHarness(2)
	blocker := &rt.epochSlots[1].v
	blocker.Store(pinWord(poolEpoch.v.Load()))
	for i := 0; i < retireBatchSize; i++ {
		p.retire(&locator[int]{version: 3})
	}
	// The batch is sealed and the epoch has ticked past its tag; a fresh
	// pin announces the younger epoch.
	young := &rt.epochSlots[0].v
	young.Store(pinWord(poolEpoch.v.Load()))
	blocker.Store(blocker.Load() &^ pinnedBit)
	if l := p.get(); l == nil {
		t.Fatalf("young pin (epoch after seal) wrongly blocked reclamation")
	}
	young.Store(young.Load() &^ pinnedBit)
}

// TestPoolRingOverflowDropsOldest starves reclamation with a permanent pin
// and checks the sealed ring stays bounded by leaking its oldest batch to
// the GC instead of growing.
func TestPoolRingOverflowDropsOldest(t *testing.T) {
	rt, p := poolHarness(2)
	// One pin held at the starting epoch blocks every batch: tags only
	// grow, so w>>1 <= tag holds for all of them.
	slot := &rt.epochSlots[1].v
	slot.Store(pinWord(poolEpoch.v.Load()))
	for b := 0; b < maxSealedBatches+3; b++ {
		for i := 0; i < retireBatchSize; i++ {
			p.retire(&locator[int]{version: 3})
		}
	}
	if p.nSealed != maxSealedBatches {
		t.Fatalf("ring occupancy = %d, want %d", p.nSealed, maxSealedBatches)
	}
	want := int64(maxSealedBatches * retireBatchSize)
	if got := rt.RetiredLocators(); got != want {
		t.Fatalf("retired gauge = %d after overflow, want %d (dropped batches uncounted)", got, want)
	}
	// A retire after the overflow still lands in the open batch: the ring
	// bound is the only guard, and batching goes on behind it.
	before := p.curLen
	p.retire(&locator[int]{version: 3})
	if p.nSealed != maxSealedBatches {
		t.Fatalf("ring occupancy = %d after a further retire, want %d", p.nSealed, maxSealedBatches)
	}
	if p.curLen != before+1 || rt.RetiredLocators() != want+1 {
		t.Fatalf("retire after the overflow missed the open batch: curLen %d → %d, gauge %d",
			before, p.curLen, rt.RetiredLocators())
	}
	slot.Store(slot.Load() &^ pinnedBit)
}

// TestPoolGateFollowsGOMAXPROCS pins the guard New keeps for oversubscribed
// runtimes: with more threads than GOMAXPROCS, pooling is off, so attempts
// take no reclamation pin and committed writes retire nothing; with one
// thread it is on, and the same writes pin (from their first Read on) and
// retire.
func TestPoolGateFollowsGOMAXPROCS(t *testing.T) {
	for _, c := range []struct {
		threads int
		on      bool
	}{{runtime.GOMAXPROCS(0) + 1, false}, {1, true}} {
		rt := New(c.threads, karmaTied{})
		if rt.locPooling != c.on {
			t.Fatalf("threads=%d: pooling = %v, want %v", c.threads, rt.locPooling, c.on)
		}
		th := rt.Thread(0)
		slot := &rt.epochSlots[0].v
		v := NewTVar(0)
		for i := 0; i < 10; i++ {
			th.Atomic(func(tx *Tx) {
				x := Read(tx, v)
				if pinned := slot.Load()&pinnedBit != 0; pinned != c.on {
					t.Errorf("threads=%d: attempt pinned after its first Read = %v, want %v", c.threads, pinned, c.on)
				}
				Write(tx, v, x+1)
			})
		}
		if got := rt.RetiredLocators(); (got > 0) != c.on {
			t.Errorf("threads=%d: %d locators retired after 10 committed writes, want retires only with pooling on", c.threads, got)
		}
	}
}

// TestPoolFreeListCap checks a thread that only retires (its peers do the
// allocating) cannot hoard: the free list stops growing at its cap and
// further batches are forgotten.
func TestPoolFreeListCap(t *testing.T) {
	_, p := poolHarness(2)
	for i := 0; i < (maxFreeLocators/retireBatchSize+3)*retireBatchSize; i++ {
		p.retire(&locator[int]{version: 3})
	}
	if p.freeLen != maxFreeLocators {
		t.Fatalf("free list grew to %d, cap is %d", p.freeLen, maxFreeLocators)
	}
}

// TestPoolPutSkipsGrace: a locator popped for a CAS that lost was never
// published, so put must return it for immediate reuse even while every
// slot is pinned.
func TestPoolPutSkipsGrace(t *testing.T) {
	rt, p := poolHarness(2)
	for i := range rt.epochSlots {
		rt.epochSlots[i].v.Store(pinWord(poolEpoch.v.Load()))
	}
	l := &locator[int]{version: 9}
	p.put(l)
	if got := p.get(); got != l {
		t.Fatalf("put locator not immediately reusable: got %p want %p", got, l)
	}
	for i := range rt.epochSlots {
		rt.epochSlots[i].v.Store(rt.epochSlots[i].v.Load() &^ pinnedBit)
	}
}

// TestPoolGraceProperty drives a randomized interleaving of pins, unpins,
// retires, and gets and asserts the EBR safety property directly: the pool
// never recycles a locator while any pin taken no later than its
// retirement (at an epoch ≤ the retirement epoch — the only pins that
// could have loaded the pointer before its unlink) is still continuously
// held. The leak-everything reference implementation — get always misses —
// satisfies the property vacuously; the pool must match it while actually
// recycling. Pin "continuity" is tracked with per-slot generations bumped
// on unpin: a slot re-pinned later is a new reader that cannot hold the
// old pointer.
func TestPoolGraceProperty(t *testing.T) {
	const slots = 4
	rt, p := poolHarness(slots)
	rng := rand.New(rand.NewSource(42))
	type pinRef struct{ slot, gen int }
	pinned := make([]bool, slots)
	gens := make([]int, slots)
	blockers := make(map[*locator[int]][]pinRef)
	recycles := 0
	for step := 0; step < 50000; step++ {
		switch op := rng.Intn(10); {
		case op < 2: // pin a slot at the current epoch
			s := rng.Intn(slots)
			if !pinned[s] {
				rt.epochSlots[s].v.Store(pinWord(poolEpoch.v.Load()))
				pinned[s] = true
			}
		case op < 4: // unpin a slot
			s := rng.Intn(slots)
			if pinned[s] {
				w := &rt.epochSlots[s].v
				w.Store(w.Load() &^ pinnedBit)
				pinned[s] = false
				gens[s]++
			}
		case op < 8: // retire a fresh locator, recording who could hold it
			l := &locator[int]{version: 11}
			e := poolEpoch.v.Load()
			var bs []pinRef
			for s := 0; s < slots; s++ {
				if pinned[s] && rt.epochSlots[s].v.Load()>>1 <= e {
					bs = append(bs, pinRef{s, gens[s]})
				}
			}
			blockers[l] = bs
			p.retire(l)
		default: // get — check the property on every recycled pointer
			l := p.get()
			if l == nil {
				continue
			}
			recycles++
			bs, known := blockers[l]
			if !known {
				t.Fatalf("pool returned a locator it was never given: %p", l)
			}
			for _, b := range bs {
				if pinned[b.slot] && gens[b.slot] == b.gen {
					t.Fatalf("step %d: locator recycled while slot %d, pinned since before its retirement, is still held", step, b.slot)
				}
			}
			if l.version != poisonVersion {
				t.Fatalf("recycled locator not poisoned: version=%d", l.version)
			}
			delete(blockers, l)
		}
	}
	if recycles == 0 {
		t.Fatalf("property test never exercised a recycle")
	}
}
