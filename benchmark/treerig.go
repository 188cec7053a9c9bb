package main

import (
	"time"

	"wincm/internal/stm"
	"wincm/internal/txbtree"
)

// nopCM is the contention manager of the single-threaded floor
// measurements: empty hooks, and a Resolve that is never reached because
// one thread cannot conflict with itself.
type nopCM struct{ stm.NopManager }

func (nopCM) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	return stm.AbortEnemy, 0
}

// txAccum sums stm.TxInfo over the transactions one goroutine committed.
type txAccum struct {
	commits, aborts, repeatAborts, fallbacks int64
	maxAttempts                              int
	wasted, resp, commitDur                  time.Duration
}

func (a *txAccum) record(info stm.TxInfo) {
	a.commits++
	if n := int64(info.Aborts()); n > 0 {
		a.aborts += n
		a.repeatAborts += n - 1
	}
	if info.Fallback {
		a.fallbacks++
	}
	if info.Attempts > a.maxAttempts {
		a.maxAttempts = info.Attempts
	}
	a.wasted += info.Wasted
	a.resp += info.Duration
	a.commitDur += info.CommitDur
}

func (a *txAccum) merge(b *txAccum) {
	a.commits += b.commits
	a.aborts += b.aborts
	a.repeatAborts += b.repeatAborts
	a.fallbacks += b.fallbacks
	if b.maxAttempts > a.maxAttempts {
		a.maxAttempts = b.maxAttempts
	}
	a.wasted += b.wasted
	a.resp += b.resp
	a.commitDur += b.commitDur
}

// emit sets the stm metrics that need TxInfo. stm.aborts_per_commit is left
// to the caller, who may have the system's own counters for it.
func (a *txAccum) emit(m *metricSet) {
	if a.commits == 0 || a.resp == 0 {
		return
	}
	n := float64(a.commits)
	resp := float64(a.resp)
	m.set("stm.wasted_frac", float64(a.wasted)/resp)
	m.set("stm.repeat_aborts_per_commit", float64(a.repeatAborts)/n)
	m.set("stm.resp_mean_us", resp/n/1e3)
	m.set("stm.commit_dur_mean_us", float64(a.commitDur)/n/1e3)
	m.set("stm.overhead_frac", float64(a.resp-a.wasted-a.commitDur)/resp)
	m.set("stm.fallback_per_mcommit", float64(a.fallbacks)/n*1e6)
	m.set("stm.max_attempts", float64(a.maxAttempts))
}

// treeRig stands in for the store below the session layer: one txbtree per
// shard in one runtime, keys routed by hash as the store routes them, so a
// command costs the same tree work and the same number of transactions as it
// does behind a Session, with none of the session's locks, thread claims or
// merging.
type treeRig struct {
	ks    *keyspace
	rt    *stm.Runtime
	trees []*txbtree.Tree[int64]
}

// storeInterleave is kv.Options' default open-yield grain.
const storeInterleave = 8

// route is the splitmix64 finaliser, the same spread the store's router has.
func route(key int64, n int) int {
	z := uint64(key) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int((z ^ (z >> 31)) % uint64(n))
}

// newTreeRig builds the trees and preloads every key (nonce 0) from thread 0.
func newTreeRig(s spec, ks *keyspace, threads int, cm stm.ContentionManager) *treeRig {
	rig := &treeRig{ks: ks, rt: stm.New(threads, cm), trees: make([]*txbtree.Tree[int64], s.shards)}
	rig.rt.SetYieldEvery(storeInterleave)
	for i := range rig.trees {
		rig.trees[i] = txbtree.New[int64]()
	}
	th := rig.rt.Thread(0)
	var key int
	insert := func(tx *stm.Tx) {
		rig.trees[route(int64(key), len(rig.trees))].Insert(tx, key, encodeVal(key, 0))
	}
	for key = 0; key < ks.keys; key++ {
		th.Atomic(insert)
	}
	return rig
}

// rigWorker replays commands on one thread of the rig. Like a Session it
// stages the command in fields and runs one persistent closure, so the
// replay allocates nothing per command.
type rigWorker struct {
	rig  *treeRig
	th   *stm.Thread
	st   *stream
	bare bool // run the same transactions with empty bodies
	acc  txAccum
	bad  int64

	class    uint8
	tree     int
	key      int
	val      int64
	res      int64
	ok       bool
	nk       int
	keys     [64]int64
	vals     [64]int64
	present  [64]bool
	on       [64]int
	lo, hi   int
	skeys    []int64
	svals    []int64
	fn       func(*stm.Tx)
	scanEach func(int, int64) bool
}

func (rig *treeRig) worker(thread int, st *stream) *rigWorker {
	w := &rigWorker{rig: rig, th: rig.rt.Thread(thread), st: st,
		skeys: make([]int64, rig.ks.span), svals: make([]int64, rig.ks.span)}
	w.fn = w.body
	w.scanEach = func(k int, v int64) bool {
		w.skeys[k-w.lo], w.svals[k-w.lo] = int64(k), v
		return true
	}
	return w
}

// body is the transaction of every command, against the staged tree.
func (w *rigWorker) body(tx *stm.Tx) {
	if w.bare {
		return
	}
	t := w.rig.trees[w.tree]
	switch w.class {
	case clGet:
		w.res, w.ok = t.Get(tx, w.key)
	case clSet:
		t.Insert(tx, w.key, w.val)
	case clMGet:
		for i := 0; i < w.nk; i++ {
			if w.on[i] == w.tree {
				w.vals[i], w.present[i] = t.Get(tx, int(w.keys[i]))
			}
		}
	case clMSet:
		for i := 0; i < w.nk; i++ {
			if w.on[i] == w.tree {
				t.Insert(tx, int(w.keys[i]), w.vals[i])
			}
		}
	case clScan:
		t.Scan(tx, w.lo, w.hi, w.scanEach)
	}
}

func (w *rigWorker) atomic() { w.acc.record(w.th.Atomic(w.fn)) }

// eachInvolved runs one transaction per distinct tree among on[:nk],
// ascending, as the store runs one sub-transaction per involved shard.
func (w *rigWorker) eachInvolved() {
	var involved uint64
	for i := 0; i < w.nk; i++ {
		involved |= 1 << uint(w.on[i])
	}
	for t := 0; involved != 0; t, involved = t+1, involved>>1 {
		if involved&1 != 0 {
			w.tree = t
			w.atomic()
		}
	}
}

// do replays one command and, unless bare, verifies what it read.
func (w *rigWorker) do(o *op) {
	ks, n := w.rig.ks, len(w.rig.trees)
	w.class = o.class
	good := true
	switch o.class {
	case clGet, clSet:
		w.key, w.val = int(o.key), encodeVal(int(o.key), o.nonce)
		w.tree = route(int64(o.key), n)
		w.atomic()
		if o.class == clGet {
			good = ks.checkGet(w.key, w.res, w.ok)
		}
	case clMGet, clMSet:
		w.nk = ks.mkeys
		if o.class == clMGet {
			w.st.mgetKeys(o, ks, w.keys[:])
		} else {
			msetPairs(o, ks, w.keys[:], w.vals[:])
		}
		for i := 0; i < w.nk; i++ {
			w.on[i] = route(w.keys[i], n)
		}
		w.eachInvolved()
		if o.class == clMGet {
			good = ks.checkMGet(w.keys[:w.nk], w.vals[:w.nk], w.present[:w.nk], o.whole)
		}
	case clScan:
		w.lo, w.hi = int(o.key), int(o.key)+ks.span
		// Each tree fills the slots of the keys it holds; a key no tree
		// returns keeps the -1 and fails the check.
		for i := range w.skeys {
			w.skeys[i] = -1
		}
		for w.tree = 0; w.tree < n; w.tree++ {
			w.atomic()
		}
		good = ks.checkScan(w.lo, w.hi, w.skeys, w.svals)
	}
	if !good && !w.bare {
		w.bad++
	}
}
