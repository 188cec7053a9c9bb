package stm

import "sync/atomic"

// Epoch-based reclamation (ISSUE 5). Displaced locators are not handed to
// the garbage collector: the thread whose CAS unlinked a locator retires
// it into a per-thread list (pool.go), and the locator is recycled once a
// grace period proves no reader can still hold the pointer. Grace is
// established with epochs:
//
//   - A package-global epoch counter ticks forward (tryAdvanceEpoch). It
//     is a clock, not a lock: advancing needs no agreement, it only has to
//     be monotonic.
//   - Every runtime thread *pins* the current epoch for the rest of an
//     attempt from just before its first locator load (Read and acquire
//     store epoch<<1|1 into the thread's padded slot; the end-of-attempt
//     cleanup clears the pin bit). All locator dereferences of the
//     transactional hot path — Read, Write, Modify, release — happen
//     inside an attempt after that first load, so a pin covers every
//     pointer the attempt may hold.
//   - Non-transactional accessors (TVar.Peek, TVar.Set) have no runtime
//     thread; they claim a slot in a package-global external pin array for
//     the duration of one call.
//
// The grace argument: a locator is retired only after the CAS that
// unlinked it from its variable, and the retire batch is tagged with the
// epoch current at seal time — so tag ≥ epoch(unlink). Any pin that can
// still hold the pointer was taken before the unlink (after it, the
// variable no longer returns the locator, and a locator is unreachable
// from anything but its variable once unlinked), hence carries an epoch
// ≤ epoch(unlink) ≤ tag. Therefore: if every pinned slot — the owning
// runtime's threads plus the external array — announces an epoch strictly
// greater than the tag, no holder remains and the batch may be recycled
// (gracePassed).
//
// Pins are lazy and then attempt-long on purpose: an attempt that opens a
// TVar pays one seq-cst store at its first open and one plain store at its
// end, instead of bracketing every locator access; an attempt that opens
// none — every attempt of a runtime whose transactions only use semantic
// structures, like kv's and txbtree's — pays nothing. The price is that a
// stalled attempt (a contention-manager wait, a probe that sleeps) delays
// reclamation; the pool bounds the damage by dropping the oldest sealed
// batch to the GC when its ring fills (pool.go), so memory stays bounded
// even when grace never comes.
//
// Scope: epochs protect transactional accessors of the runtime that
// retired the locator plus all external accessors. Transactional access
// to one TVar from two different runtimes is already outside the model —
// reader stamps resolve thread indexes against the accessor's own runtime
// (readerset.go) — so the epoch layer adds no new constraint.

// poolEpoch is the package-global reclamation clock. It starts at 1 so a
// zero slot word (epoch 0, unpinned) can never alias a live pin.
var poolEpoch = func() *paddedUint64 {
	e := new(paddedUint64)
	e.v.Store(1)
	return e
}()

// paddedUint64 keeps the epoch counter (and pin slots) off neighboring
// cache lines; the counter is CASed by sealers while every attempt loads
// it.
type paddedUint64 struct {
	v atomic.Uint64
	_ [56]byte
}

// Pin-slot word layout: epoch<<1 | pinned. The epoch survives in the word
// after unpinning (only the bit is cleared), which costs nothing and aids
// debugging.
const pinnedBit = 1

// pinWord builds a pinned slot word for epoch e.
func pinWord(e uint64) uint64 { return e<<1 | pinnedBit }

// slotBlocks reports whether slot word w blocks reclamation of a batch
// retired at epoch tag: it is pinned at an epoch that could predate the
// batch members' unlinking.
func slotBlocks(w, tag uint64) bool {
	return w&pinnedBit != 0 && w>>1 <= tag
}

// tryAdvanceEpoch ticks the global epoch from its current value once.
// Failure means another sealer ticked it concurrently, which serves the
// same purpose; callers never loop.
func tryAdvanceEpoch() {
	e := poolEpoch.v.Load()
	poolEpoch.v.CompareAndSwap(e, e+1)
}

// pin announces the calling thread's attempt in its epoch slot unless it
// already has, or the runtime does not pool locators (nothing is ever
// retired then). Read and acquire call it before they load a locator, so
// it runs before the attempt's first load; the seq-cst store/load pairing
// with the retiring side's scan is what makes the grace argument above
// sound.
func (tx *Tx) pin() {
	if tx.pinned || !tx.poolOn {
		return
	}
	tx.pinned = true
	tx.owner.epochSlot().Store(pinWord(poolEpoch.v.Load()))
}

// unpin clears the pin bit after the attempt's last locator access (the
// end of cleanup). A plain store is enough: only the owning thread writes
// its slot.
func (tx *Tx) unpin() {
	tx.pinned = false
	s := tx.owner.epochSlot()
	s.Store(s.Load() &^ pinnedBit)
}

// epochSlot returns the thread's pin slot in the runtime's padded array.
func (t *Thread) epochSlot() *atomic.Uint64 { return &t.rt.epochSlots[t.id].v }

// External pins — Peek and Set run on arbitrary goroutines, outside any
// runtime, so they announce in a shared fixed array instead. extPinSlots
// is a tradeoff: larger arrays admit more concurrent external accessors
// without spinning but lengthen every grace scan.
const extPinSlots = 64

var (
	extPins   [extPinSlots]paddedUint64
	extCursor atomic.Uint32
)

// extPin claims a free external slot, announcing the current epoch, and
// returns it. Peek/Set are documented as between-runs utilities, so a
// short CAS walk over the array is fine; under pathological contention it
// degrades to spinning until a slot frees, never to unsafety.
func extPin() *atomic.Uint64 {
	i := extCursor.Add(1)
	for {
		s := &extPins[i%extPinSlots].v
		if w := s.Load(); w&pinnedBit == 0 {
			if s.CompareAndSwap(w, pinWord(poolEpoch.v.Load())) {
				return s
			}
		}
		i++
	}
}

// extUnpin releases a slot claimed with extPin.
func extUnpin(s *atomic.Uint64) {
	s.Store(s.Load() &^ pinnedBit)
}

// gracePassed reports whether a batch retired at epoch tag is safe to
// recycle: no runtime thread of rt and no external accessor is still
// pinned at an epoch ≤ tag.
func gracePassed(rt *Runtime, tag uint64) bool {
	for i := range rt.epochSlots {
		if slotBlocks(rt.epochSlots[i].v.Load(), tag) {
			return false
		}
	}
	for i := range extPins {
		if slotBlocks(extPins[i].v.Load(), tag) {
			return false
		}
	}
	return true
}
