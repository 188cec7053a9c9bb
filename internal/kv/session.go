package kv

import (
	"errors"

	"wincm/internal/stm"
)

// MaxMultiKeys bounds the key count of one multi-key transaction (MGET /
// MSET): enough for real batching, small enough that the session's
// fixed staging arrays stay a few cache lines.
const MaxMultiKeys = 64

// MaxScanSpan bounds a range scan's key span (hi − lo): a scan must
// visit every shard and holds every shard's lock exclusively, so an
// unbounded span would let one request stall the whole store for
// arbitrary work.
const MaxScanSpan = 4096

// Preallocated request errors — the request path reports misuse without
// allocating.
var (
	ErrTooManyKeys = errors.New("kv: multi-key operation exceeds MaxMultiKeys")
	ErrScanSpan    = errors.New("kv: scan span exceeds MaxScanSpan")
	ErrScanRange   = errors.New("kv: scan needs lo < hi and limit > 0")
	ErrBadArgs     = errors.New("kv: output slices shorter than key slice")
	ErrKeyRange    = errors.New("kv: key outside the platform int range")
)

// keyFits reports whether a wire key survives the tree's int key
// conversion. On 64-bit platforms this is constant true (and the
// compiler erases the checks built on it); on a 32-bit platform distinct
// int64 keys outside the int range would alias after truncation, so
// every entry layer — wire parse, multi-key, scan — rejects them
// instead.
func keyFits(k int64) bool { return int64(int(k)) == k }

// keysFit applies keyFits across a key slice.
func keysFit(keys []int64) bool {
	for _, k := range keys {
		if !keyFits(k) {
			return false
		}
	}
	return true
}

// opKind selects what Session.exec does inside the claimed thread's
// transaction.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDel
	opMGet
	opMSet
	opScan
)

// Session is the per-connection (or per-worker) operation surface of a
// Store. A session is single-goroutine; it owns one persistent
// transaction closure and fixed scratch arrays, so the steady-state
// single-shard request path — claim thread, run the transaction, record,
// release — allocates nothing. On every shard it prefers the same thread,
// and consecutive sessions prefer different ones, so a shard thread
// mostly runs one session's stream of transactions. Sessions are cheap;
// make one per connection.
//
// Keys are int64 on the wire but the tree is keyed by int: every key
// must satisfy keyFits. The error-returning surfaces (MGet, MSet, Scan)
// and the wire parser reject offenders with ErrKeyRange; the
// no-error single-key surfaces (Get, Set, Del) make fitting keys the
// caller's contract — the wire layer already guarantees it for served
// traffic, and on 64-bit platforms every int64 fits.
type Session struct {
	st *Store
	// pref is the thread index the session claims first on every shard;
	// wake is where it parks when a shard is saturated.
	pref int
	wake chan *threadSlot
	// sh is the shard of the sub-transaction currently executing; op and
	// the fields below stage the operation for exec.
	sh  *shard
	op  opKind
	key int64
	val int64
	res int64
	ok  bool

	// Multi-key staging: keys/vals/ok by position, the routed shard of
	// each key, and the sorted unique involved-shard list.
	nk     int
	mkeys  [MaxMultiKeys]int64
	mvals  [MaxMultiKeys]int64
	mok    [MaxMultiKeys]bool
	mshard [MaxMultiKeys]int32
	shlist []int

	// Scan staging: bounds, the shards' ascending runs back to back, the
	// head of each shard's run (its start while the shard scans: a retry
	// resets only that shard's results), and the merged result pairs.
	lo, hi   int64
	runKeys  []int64
	runVals  []int64
	runHead  []int
	scanKeys []int64
	scanVals []int64

	// fn is the persistent transaction body (captures only the session),
	// scanFn the persistent tree.Scan callback.
	fn     func(*stm.Tx)
	scanFn func(int, int64) bool
}

// NewSession builds an operation surface over the store.
func (st *Store) NewSession() *Session {
	se := &Session{
		st:      st,
		pref:    int((st.sessions.Add(1) - 1) % uint64(st.opt.ShardThreads)),
		wake:    make(chan *threadSlot, 1),
		shlist:  make([]int, 0, st.Shards()),
		runHead: make([]int, st.Shards()),
	}
	se.fn = func(tx *stm.Tx) { se.exec(tx) }
	se.scanFn = func(k int, v int64) bool {
		se.runKeys = append(se.runKeys, int64(k))
		se.runVals = append(se.runVals, v)
		return true
	}
	return se
}

// exec is the transaction body of every operation: it runs (possibly
// several times, under abort/retry) on a thread of se.sh with the staged
// operation. Outputs are plain overwrites, so a retried attempt leaves
// no residue.
func (se *Session) exec(tx *stm.Tx) {
	t := se.sh.tree
	switch se.op {
	case opGet:
		se.res, se.ok = t.Get(tx, int(se.key))
	case opSet:
		t.Insert(tx, int(se.key), se.val)
	case opDel:
		se.ok = t.Delete(tx, int(se.key))
	case opMGet:
		idx := int32(se.sh.idx)
		for i := 0; i < se.nk; i++ {
			if se.mshard[i] == idx {
				se.mvals[i], se.mok[i] = t.Get(tx, int(se.mkeys[i]))
			}
		}
	case opMSet:
		idx := int32(se.sh.idx)
		for i := 0; i < se.nk; i++ {
			if se.mshard[i] == idx {
				t.Insert(tx, int(se.mkeys[i]), se.mvals[i])
			}
		}
	case opScan:
		// Reset to this shard's base: an aborted attempt re-appends.
		base := se.runHead[se.sh.idx]
		se.runKeys, se.runVals = se.runKeys[:base], se.runVals[:base]
		t.Scan(tx, int(se.lo), int(se.hi), se.scanFn)
	}
}

// runOn executes the staged operation as one STM transaction on a
// claimed thread of sh (the shard's runtime counts its outcome).
func (se *Session) runOn(sh *shard) {
	se.sh = sh
	ts := sh.claim(se.pref, se.wake)
	ts.th.Atomic(se.fn)
	sh.release(ts)
}

// runSingle is the single-shard path: the session's share of the shard's
// cross-shard lock (shard.share) is taken in read mode, so the
// operation can never observe (or interleave into) a half-applied
// multi-shard commit, while single-shard operations on the same shard
// still run fully concurrently — their isolation is the STM's job, not
// the lock's. The claim may still fall back to another slot's thread.
func (se *Session) runSingle(sh *shard) {
	x := sh.share(se.pref)
	x.RLock()
	se.runOn(sh)
	x.RUnlock()
}

// Get returns key's committed value.
func (se *Session) Get(key int64) (int64, bool) {
	se.op, se.key = opGet, key
	se.runSingle(se.st.shards[se.st.shardOf(key)])
	return se.res, se.ok
}

// Set upserts key to val.
func (se *Session) Set(key, val int64) {
	se.op, se.key, se.val = opSet, key, val
	se.runSingle(se.st.shards[se.st.shardOf(key)])
}

// Del removes key, reporting whether it was present.
func (se *Session) Del(key int64) bool {
	se.op, se.key = opDel, key
	se.runSingle(se.st.shards[se.st.shardOf(key)])
	return se.ok
}

// Scan collects up to limit key/value pairs with lo ≤ key < hi in
// ascending key order and returns the count; read the pairs from
// ScanKeys/ScanVals (valid until the session's next operation). Keys are
// hash-routed, so the range spans every shard: Scan is a cross-shard
// read transaction — every shard's lock exclusively, ascending (the
// shared side would not be a consistent snapshot against single-key
// writers; see txn.go), one sub-scan per shard — then a merge of the
// shards' ascending runs.
func (se *Session) Scan(lo, hi int64, limit int) (int, error) {
	if hi <= lo || limit <= 0 {
		return 0, ErrScanRange
	}
	// Unsigned difference: exact for hi > lo, where the signed hi-lo can
	// overflow (lo deeply negative, hi large) and dodge the span guard.
	if uint64(hi)-uint64(lo) > MaxScanSpan {
		return 0, ErrScanSpan
	}
	if !keyFits(lo) || !keyFits(hi) {
		return 0, ErrKeyRange
	}
	se.op, se.lo, se.hi = opScan, lo, hi
	se.runKeys, se.runVals = se.runKeys[:0], se.runVals[:0]
	shards := se.st.shards
	for _, sh := range shards {
		sh.lockSpan()
	}
	for i, sh := range shards {
		se.runHead[i] = len(se.runKeys)
		se.runOn(sh)
	}
	for i := len(shards) - 1; i >= 0; i-- {
		shards[i].unlockSpan()
	}
	// Key k can only be at the head of shardOf(k)'s run; a head past its
	// run sits on another shard's key, which never matches.
	se.scanKeys, se.scanVals = se.scanKeys[:0], se.scanVals[:0]
	for k := lo; k < hi && len(se.scanKeys) < limit; k++ {
		s := se.st.shardOf(k)
		if h := se.runHead[s]; h < len(se.runKeys) && se.runKeys[h] == k {
			se.scanKeys = append(se.scanKeys, k)
			se.scanVals = append(se.scanVals, se.runVals[h])
			se.runHead[s]++
		}
	}
	return len(se.scanKeys), nil
}

// ScanKeys returns the keys of the last Scan, in ascending order.
func (se *Session) ScanKeys() []int64 { return se.scanKeys }

// ScanVals returns the values of the last Scan, aligned with ScanKeys.
func (se *Session) ScanVals() []int64 { return se.scanVals }
