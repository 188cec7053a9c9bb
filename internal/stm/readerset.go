package stm

import "sync/atomic"

// Visible-reader registration (ISSUE 3): the per-variable reader map and
// its mutex are replaced by a fixed-size sharded slot array. Each slot is
// one word — a packed (attempt serial, thread index) stamp — and each
// thread owns exactly one slot per variable (the thread index is a
// collision-free shard key), so registering a visible read is a single
// atomic store into the thread's own slot. Nothing is ever unregistered:
// a stamp whose serial no longer matches the stamping thread's current
// attempt is dead, and the next registration by that thread simply
// overwrites it. That removes the two per-read lock-prefixed operations
// the previous designs paid on top of the store (a claim CAS going in and
// a clearing CAS at attempt end) and removes reader-set cleanup from the
// attempt loop entirely.
//
// Writer protocol: after (and before) acquiring the ownership record, the
// writer scans the slots. For each stamp it loads the stamping thread's
// packed status word; if that word's serial matches the stamp and the
// status is Active, the stamp was made by the thread's *current* attempt —
// a live visible reader — and the writer resolves against exactly that
// attempt (the abort CAS carries the captured word, so a stale stamp can
// never kill a later recycled attempt). Serial mismatch means the stamp is
// dead and is skipped.
//
// Memory ordering (the registration/acquisition race): a reader stores its
// stamp and then loads the ownership record; a writer CASes the ownership
// record and then loads the slots. All four are sequentially consistent
// atomics, so at least one side observes the other (the classic
// store/load–store/load argument): either the writer's scan sees the
// stamp, or the reader's post-registration load sees the ownership — in
// both cases the conflict is resolved before either can commit.
//
// The first inlineReaders threads stamp slots embedded in the TVar; a
// runtime with more threads lazily installs a spill table with one padded
// slot per thread the first time one of those threads reads the variable.

// inlineReaders is the number of reader slots embedded directly in every
// TVar. Runtimes with at most this many threads never allocate reader
// storage at all.
const inlineReaders = 4

// readerStamp packs (attempt serial, thread index) into one slot word:
// low stampBits hold threadID+1 (0 = empty slot), the rest is the attempt
// serial. Serials are monotonic per thread, so a stamp value is never
// reused and dead stamps cannot be mistaken for live ones.
const stampBits = 8

// MaxThreads is the largest thread count New accepts: the most the reader
// stamp encoding carries.
const MaxThreads = 1<<stampBits - 1

// makeStamp builds the slot word for a thread's current attempt.
func makeStamp(threadID int, serial uint64) uint64 {
	return serial<<stampBits | uint64(threadID+1)
}

// stampThread returns the stamping thread's index.
func stampThread(stamp uint64) int { return int(stamp&(1<<stampBits-1)) - 1 }

// stampSerial returns the stamping attempt's serial.
func stampSerial(stamp uint64) uint64 { return stamp >> stampBits }

// paddedSlot spaces spill-table slots a cache line apart so threads
// stamping neighboring shards do not false-share.
type paddedSlot struct {
	w atomic.Uint64
	_ [56]byte
}

// spillTable holds one padded slot per runtime thread, for runtimes with
// more threads than the inline slots cover.
type spillTable struct {
	slots []paddedSlot
}

// readerSet is the sharded visible-reader table embedded in every TVar.
// The zero value is ready to use and allocation-free for runtimes with at
// most inlineReaders threads.
type readerSet struct {
	inline [inlineReaders]atomic.Uint64
	spill  atomic.Pointer[spillTable]
}

// slot returns the calling thread's slot, installing the spill table on
// first use by a thread beyond the inline range.
func (rs *readerSet) slot(tx *Tx) *atomic.Uint64 {
	id := tx.D.ThreadID
	if id < inlineReaders {
		return &rs.inline[id]
	}
	sp := rs.spill.Load()
	if sp == nil || len(sp.slots) <= id-inlineReaders {
		sp = rs.installSpill(tx)
	}
	return &sp.slots[id-inlineReaders].w
}

// register stamps tx's current attempt as a visible reader of the
// variable. It returns true when this is a new registration for the
// attempt and false on a repeat read (the stamp is already in place).
// Registration needs no undo: the stamp dies when the attempt's serial
// advances.
func (rs *readerSet) register(tx *Tx) (added bool) {
	s := rs.slot(tx)
	stamp := makeStamp(tx.D.ThreadID, tx.serial())
	if s.Load() == stamp {
		return false
	}
	s.Store(stamp)
	return true
}

// installSpill publishes a spill table sized for the runtime's thread
// count and returns the table that won the install race. A table that
// lost is left to the garbage collector: the winner's is big enough for
// any thread of this runtime.
func (rs *readerSet) installSpill(tx *Tx) *spillTable {
	need := tx.rt.Threads() - inlineReaders
	old := rs.spill.Load()
	if old != nil && len(old.slots) >= need {
		return old
	}
	rs.spill.CompareAndSwap(old, &spillTable{slots: make([]paddedSlot, need)})
	return rs.spill.Load()
}

// resolveWriters is the writer-side scan: w resolves every live visible
// reader of the variable other than itself through the contention manager,
// repeating per slot until that slot's reader is no longer a live foreign
// attempt. A live reader is a stamp whose serial matches the stamping
// thread's current packed status word with status Active; the resolve
// carries that captured word, so the abort (if the manager chooses one)
// lands on exactly the attempt that registered.
func (rs *readerSet) resolveWriters(w *Tx, attempt *int) {
	m := w.rt.Threads()
	if m > inlineReaders {
		m = inlineReaders
	}
	for i := 0; i < m; i++ {
		resolveStamp(&rs.inline[i], w, attempt)
	}
	if sp := rs.spill.Load(); sp != nil {
		for i := range sp.slots {
			resolveStamp(&sp.slots[i].w, w, attempt)
		}
	}
}

// resolveStamp resolves the reader stamped in s (if live) against w.
func resolveStamp(s *atomic.Uint64, w *Tx, attempt *int) {
	for {
		stamp := s.Load()
		if stamp == 0 {
			return
		}
		r := w.rt.threads[stampThread(stamp)].txp()
		if r == w {
			return
		}
		word := r.status.Load()
		if serialOf(word) != stampSerial(stamp) || StatusOf(word) != Active {
			// Dead stamp: the registering attempt has moved on.
			return
		}
		w.checkAlive()
		w.resolve(r, word, WriteRead, attempt)
		// Re-examine: the resolve may have waited while the reader
		// finished, or aborted it (its serial advances on retry).
	}
}
