package kv

import (
	"sync"

	"wincm/internal/core"
	"wincm/internal/stm"
	"wincm/internal/txbtree"
)

// shard is one independent slice of the store: its own STM runtime,
// transactional B-link tree, contention manager (with its own frame
// clock, for window variants) and thread pool. Nothing here is shared
// with any other shard.
type shard struct {
	idx  int
	rt   *stm.Runtime
	tree *txbtree.Tree[int64]
	// wm is the manager when it is a window variant (occupancy gauge,
	// frame hooks); nil for classic managers.
	wm *core.Manager
	wd *stm.Watchdog
	// xmu is the cross-shard commit lock. Multi-shard operations —
	// readers and writers alike — hold it exclusively for their whole
	// two-phase span, in ascending shard-index order; single-shard
	// operations ride the read side, so they never overlap a cross-shard
	// span on their shard while staying fully concurrent with each
	// other. See txn.go for the ordering and strictness arguments.
	xmu sync.RWMutex
	// pool hands out the runtime's threads. Claiming blocks when every
	// thread of the shard is mid-transaction — backpressure, not queuing.
	pool chan *stm.Thread
}

// newShard builds shard idx from the resolved options.
func newShard(idx int, o Options) (*shard, error) {
	// Distinct per-shard seeds keep the managers' random delays and
	// priorities decorrelated across shards.
	mgr, wm, err := core.NewNamed(o.Manager, o.ShardThreads, o.WindowN, o.Seed+uint64(idx)*0x9e3779b9+1)
	if err != nil {
		return nil, err
	}
	var opts []stm.Option
	watched := o.MaxAttempts > 0 || o.TxDeadline > 0
	if watched {
		opts = append(opts, stm.WithFallback(o.MaxAttempts, o.TxDeadline))
	}
	rt := stm.New(o.ShardThreads, mgr, opts...)
	sh := &shard{
		idx:  idx,
		rt:   rt,
		tree: txbtree.New[int64](),
		wm:   wm,
		pool: make(chan *stm.Thread, o.ShardThreads),
	}
	for i := 0; i < o.ShardThreads; i++ {
		sh.pool <- rt.Thread(i)
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

// claim checks a thread out of the pool, blocking until one is free.
func (sh *shard) claim() *stm.Thread { return <-sh.pool }

// release returns a claimed thread.
func (sh *shard) release(t *stm.Thread) { sh.pool <- t }

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
