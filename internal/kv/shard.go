package kv

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"wincm/internal/core"
	"wincm/internal/stm"
	"wincm/internal/txbtree"
)

// shard is one independent slice of the store: its own STM runtime,
// transactional B-link tree, contention manager (with its own frame
// clock, for window variants) and STM threads. Nothing here is shared
// with any other shard.
type shard struct {
	idx  int
	rt   *stm.Runtime
	tree *txbtree.Tree[int64]
	// wm is the manager when it is a window variant (occupancy gauge,
	// frame hooks); nil for classic managers.
	wm *core.Manager
	wd *stm.Watchdog
	// slots are the runtime's threads, their claim words and the shard's
	// cross-shard commit lock: the xmu of the first shares slots, one
	// share per slot up to GOMAXPROCS — more readers never run at once,
	// and a span pays for every share (lockSpan).
	// Claimers that find every thread taken park in waiters (under mu) and
	// are handed threads oldest first; nwait counts them for release.
	slots   []threadSlot
	shares  int
	nwait   atomic.Int32
	mu      sync.Mutex
	waiters []chan *threadSlot
}

// threadSlot is a thread, its claim word and (in the first shares slots)
// a share of the shard's cross-shard commit lock, alone on a cache line.
// A single-shard operation read-locks only its session's share (share), so
// sessions with different preferences write no common line; a span
// write-locks every share (lockSpan). txn.go has the ordering and
// strictness arguments.
type threadSlot struct {
	th      *stm.Thread
	xmu     sync.RWMutex
	claimed atomic.Bool
	_       [64 - 8 - 24 - 4]byte
}

// threadSlot is exactly one line: either array length below goes negative,
// and the build fails, if the pad above no longer fits sync.RWMutex's size.
var (
	_ [64 - unsafe.Sizeof(threadSlot{})]byte
	_ [unsafe.Sizeof(threadSlot{}) - 64]byte
)

// newShard builds shard idx from the resolved options.
func newShard(idx int, o Options) (*shard, error) {
	// Distinct per-shard seeds keep the managers' random delays and
	// priorities decorrelated across shards.
	mgr, wm, err := core.NewNamed(o.Manager, o.ShardThreads, o.WindowN, o.Seed+uint64(idx)*0x9e3779b9+1)
	if err != nil {
		return nil, err
	}
	// kv reads no TxInfo duration, so its runtimes are untimed: a
	// transaction that commits first time reads no clock.
	opts := []stm.Option{stm.WithoutTxTiming()}
	watched := o.MaxAttempts > 0 || o.TxDeadline > 0
	if watched {
		opts = append(opts, stm.WithFallback(o.MaxAttempts, o.TxDeadline))
	}
	rt := stm.New(o.ShardThreads, mgr, opts...)
	sh := &shard{
		idx:    idx,
		rt:     rt,
		tree:   txbtree.New[int64](),
		wm:     wm,
		slots:  make([]threadSlot, o.ShardThreads),
		shares: min(o.ShardThreads, runtime.GOMAXPROCS(0)),
	}
	for i := range sh.slots {
		sh.slots[i].th = rt.Thread(i)
	}
	if watched {
		// The stm default interval (5 ms) is tuned for benchmark harnesses;
		// on a loaded service a healthy shard's goroutines can legitimately
		// go unscheduled that long, so a service trip should mean "stuck
		// for a whole transaction deadline", not scheduler jitter.
		iv := o.TxDeadline
		if iv <= 0 {
			iv = DefaultTxDeadline
		}
		sh.wd = rt.StartWatchdog(iv)
	}
	return sh, nil
}

// claim checks out a thread, trying slot pref first. When every thread
// is claimed it parks on wake (the session's, capacity 1) until release
// hands it one, oldest claimer first: the shard's backpressure.
func (sh *shard) claim(pref int, wake chan *threadSlot) *threadSlot {
	if ts := sh.tryClaim(pref); ts != nil {
		return ts
	}
	sh.mu.Lock()
	// Counted before the retry, so a release the retry misses sees us.
	sh.nwait.Add(1)
	if ts := sh.tryClaim(pref); ts != nil {
		sh.nwait.Add(-1)
		sh.mu.Unlock()
		return ts
	}
	sh.waiters = append(sh.waiters, wake)
	sh.mu.Unlock()
	return <-wake
}

// tryClaim CASes the claim words from pref on, wrapping around.
func (sh *shard) tryClaim(pref int) *threadSlot {
	for i := range sh.slots {
		if ts := &sh.slots[(pref+i)%len(sh.slots)]; ts.claimed.CompareAndSwap(false, true) {
			return ts
		}
	}
	return nil
}

// release hands ts, still claimed, to the oldest parked claimer, or
// leaves its claim word clear when none is parked.
func (sh *shard) release(ts *threadSlot) {
	ts.claimed.Store(false)
	if sh.nwait.Load() == 0 || !ts.claimed.CompareAndSwap(false, true) {
		return // nobody parked, or a claim took the thread first
	}
	sh.mu.Lock()
	if len(sh.waiters) == 0 {
		ts.claimed.Store(false)
		sh.mu.Unlock()
		return
	}
	wake := sh.waiters[0]
	sh.waiters = append(sh.waiters[:0], sh.waiters[1:]...)
	sh.nwait.Add(-1)
	sh.mu.Unlock()
	wake <- ts
}

// share is the commit-lock share a session preferring slot pref
// read-locks: its own slot's, unless there are fewer shares than slots.
func (sh *shard) share(pref int) *sync.RWMutex {
	if pref >= sh.shares {
		pref %= sh.shares
	}
	return &sh.slots[pref].xmu
}

// lockSpan write-locks every share of the commit lock, ascending.
func (sh *shard) lockSpan() {
	for i := range sh.shares {
		sh.slots[i].xmu.Lock()
	}
}

// unlockSpan releases lockSpan's locks in reverse order.
func (sh *shard) unlockSpan() {
	for i := sh.shares - 1; i >= 0; i-- {
		sh.slots[i].xmu.Unlock()
	}
}

// idle counts the unclaimed threads; one being handed over is claimed.
func (sh *shard) idle() (n int) {
	for i := range sh.slots {
		if !sh.slots[i].claimed.Load() {
			n++
		}
	}
	return n
}

// occupancy reports the frame clock's pending registrations (window
// managers only; zero otherwise).
func (sh *shard) occupancy() (cur, total int64) {
	if sh.wm == nil {
		return 0, 0
	}
	return sh.wm.Occupancy()
}

// close stops the watchdog.
func (sh *shard) close() {
	if sh.wd != nil {
		sh.wd.Stop()
	}
}
