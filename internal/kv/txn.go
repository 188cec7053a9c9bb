package kv

// Cross-shard transactions.
//
// A multi-key operation whose keys hash to more than one shard cannot be
// a single STM transaction — the shards are independent runtimes by
// design. Instead it commits via an ordered two-phase acquire over shard
// indices:
//
//  1. Compute the involved-shard set and sort it ascending.
//  2. Acquire each involved shard's commit lock in that order —
//     exclusively, for readers and writers alike. A shard's commit lock
//     is one RWMutex per thread slot (threadSlot.xmu), for at most
//     GOMAXPROCS slots (shard.shares); taking it exclusively write-locks
//     every share, so the span locks in ascending (shard, slot) order
//     (shard.lockSpan).
//  3. While all locks are held, run one STM sub-transaction per involved
//     shard (ascending), each applying just that shard's slice of the
//     key set. Conflicts with concurrent single-shard transactions route
//     through that shard's contention manager unchanged — the lock
//     serializes cross-shard *spans*, not data access.
//  4. Release in reverse order.
//
// A single-shard operation read-locks one share only, its session's
// preferred slot's (shard.share; slot pref modulo the share count when
// there are fewer shares than slots), so sessions preferring different
// slots write no common lock word; its thread claim may still fall back
// to another slot.
//
// Deadlock-freedom: every multi-shard operation acquires the shares in
// ascending (shard, slot) order, so any wait-for edge between two
// multi-shard operations points from a lower-ordered lock holder to a
// higher-ordered one — the wait-for graph over locks is acyclic.
// Single-shard operations hold exactly one read lock and never block on
// another lock while holding it. A thread claim is the last thing a
// session takes: it holds at most one, and releases it before taking any
// other lock or claim. So a parked claimer holds one read lock and waits
// only on claim holders; those are single-shard operations of the same
// shard, which wait on nothing (a span that holds a shard's write locks
// excludes every reader there, so it never meets a parked claimer nor
// waits for a claim on that shard). STM-level conflicts under the locks
// are resolved by the shard's contention manager, whose liveness
// guarantees (kill/wait decisions plus the serialized fallback) are
// unchanged from the single-runtime case.
//
// Strict serializability — two-phase locking at shard granularity:
//
//   - A cross-shard operation (MSet, MGet, Scan) holds the exclusive
//     side of every share of every involved shard's lock
//     simultaneously for its whole span, so any two cross-shard
//     operations with overlapping shard sets have disjoint spans, and a
//     single-shard operation (the shared side of one share) cannot
//     overlap a cross-shard span on its shard. Serialize each cross-shard
//     operation at its span.
//   - Single-shard operations on one shard are serialized by that
//     shard's STM in commit order, which respects real time, and they
//     fall entirely before or entirely after any cross-shard span on
//     that shard — consistent with the span order above. Operations on
//     disjoint shards never conflict.
//
// Every conflict edge therefore agrees with real-time span order: the
// history is strictly serializable. Readers paying the exclusive side
// is load-bearing, not pessimism: if MGet took the shared side it
// would exclude MSets but not single-key writers, and an MGet spanning
// shards A,B could read A (missing a committed-later W_A), then W_A
// and an independent W_B commit, then read B observing W_B — forcing
// the reader after W_B but before W_A, a cycle with the real-time
// order W_A < W_B. The shared side only ever bought per-operation
// atomicity against cross-shard writers, not a consistent snapshot.
// The cost of the exclusive side — single-key traffic on the involved
// shards blocks for the span, and cross-shard readers serialize with
// each other — is the price of the snapshot; EXPERIMENTS.md measures
// it.

// involved computes the sorted unique shard set of the staged keys into
// se.shlist (insertion sort into the ascending list; the list is at most
// min(len keys, Shards) long, so linear insertion is fine and allocates
// nothing).
func (se *Session) involved(keys []int64) {
	se.nk = len(keys)
	se.shlist = se.shlist[:0]
	for i, k := range keys {
		se.mkeys[i] = k
		s := se.st.shardOf(k)
		se.mshard[i] = int32(s)
		pos := len(se.shlist)
		for pos > 0 && se.shlist[pos-1] >= s {
			if se.shlist[pos-1] == s {
				pos = -1
				break
			}
			pos--
		}
		if pos < 0 {
			continue
		}
		se.shlist = append(se.shlist, 0)
		copy(se.shlist[pos+1:], se.shlist[pos:])
		se.shlist[pos] = s
	}
}

// runMulti executes the staged multi-key operation: single-shard key sets
// take the fast path (one sub-transaction under the shard's read lock —
// shard-local atomicity is the STM's job); multi-shard sets do the
// ordered two-phase acquire, exclusive for readers and writers alike
// (see the strictness argument above).
func (se *Session) runMulti() {
	shards := se.st.shards
	if len(se.shlist) == 1 {
		se.runSingle(shards[se.shlist[0]])
		return
	}
	for _, i := range se.shlist {
		shards[i].lockSpan()
	}
	for _, i := range se.shlist {
		se.runOn(shards[i])
	}
	for j := len(se.shlist) - 1; j >= 0; j-- {
		shards[se.shlist[j]].unlockSpan()
	}
}

// MGet reads up to MaxMultiKeys keys as one strictly serializable
// cross-shard transaction. vals[i], present[i] receive key i's value and
// existence; both slices must be at least len(keys) long.
func (se *Session) MGet(keys, vals []int64, present []bool) error {
	if len(keys) > MaxMultiKeys {
		return ErrTooManyKeys
	}
	if len(vals) < len(keys) || len(present) < len(keys) {
		return ErrBadArgs
	}
	if len(keys) == 0 {
		return nil
	}
	if !keysFit(keys) {
		return ErrKeyRange
	}
	se.involved(keys)
	se.op = opMGet
	se.runMulti()
	for i := 0; i < se.nk; i++ {
		vals[i], present[i] = se.mvals[i], se.mok[i]
	}
	return nil
}

// MSet upserts up to MaxMultiKeys key/value pairs atomically: a
// concurrent reader sees all of the writes or none of them, even when
// the keys span shards. Duplicate keys apply in argument order (last
// wins). vals must be at least len(keys) long.
func (se *Session) MSet(keys, vals []int64) error {
	if len(keys) > MaxMultiKeys {
		return ErrTooManyKeys
	}
	if len(vals) < len(keys) {
		return ErrBadArgs
	}
	if len(keys) == 0 {
		return nil
	}
	if !keysFit(keys) {
		return ErrKeyRange
	}
	se.involved(keys)
	copy(se.mvals[:len(keys)], vals)
	se.op = opMSet
	se.runMulti()
	return nil
}
