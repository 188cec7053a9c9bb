package telemetry

import (
	"time"

	"wincm/internal/stm"
)

// Probe instruments the STM hot path through the runtime's existing probe
// seam (stm.Probe): open/acquire counts and, from OnResolve, the conflict
// decision mix and the backoff-wait histogram. It counts no commits or
// aborts — the runtime does (stm.Runtime.Commits, Aborts), and TxStats
// records each committed transaction's TxInfo — and no semantic-structure
// events, which the structure counts itself (txbtree.Tree.Stats).
//
// It deliberately does not implement stm.OpenProbe: opens and acquires are
// tallied by the runtime on the attempt itself (stm.Tx.OpenCalls,
// AcquireCount) and folded in once per attempt end, so a long traversal
// pays nothing per open. Every recording hook is a handful of
// single-writer sharded updates — no locks, no allocation, no locked bus
// cycles.
type Probe struct {
	// Opens counts transactional opens (reads + writes); Acquires counts
	// new write ownerships. Both are folded in at attempt end.
	Opens, Acquires *Counter
	// Resolutions counts conflict resolutions by final decision.
	ResolveAbortEnemy, ResolveAbortSelf, ResolveWait *Counter
	// WaitNs is the histogram of granted Wait spans (CM backoff waits).
	WaitNs *Histogram

	mask    uint32
	scratch []probeScratch
}

// probeScratch is per-thread bookkeeping for attempt-end folding: which
// attempt OnCommit already recorded, so an attempt aborted remotely
// between OnCommit and the status CAS (OnCommit then OnAbort on the same
// attempt) is not counted twice. Owner-thread-only plain fields; nothing
// else reads them.
type probeScratch struct {
	lastID      uint64
	lastAttempt int
	_           [shardPad - 16]byte
}

var _ stm.Probe = (*Probe)(nil)

// NewProbe registers the hot-path instrument set in r.
func NewProbe(r *Registry, shards int) *Probe {
	n := ceilPow2(shards)
	return &Probe{
		Opens:             r.NewCounter("wincm_opens_total", "transactional opens (reads and writes)", shards),
		Acquires:          r.NewCounter("wincm_acquires_total", "new write ownerships", shards),
		ResolveAbortEnemy: r.NewCounter("wincm_resolve_abort_enemy_total", "conflicts resolved by aborting the enemy", shards),
		ResolveAbortSelf:  r.NewCounter("wincm_resolve_abort_self_total", "conflicts resolved by self-abort", shards),
		ResolveWait:       r.NewCounter("wincm_resolve_wait_total", "conflicts resolved by waiting", shards),
		WaitNs:            r.NewHistogram("wincm_cm_wait_ns", "contention-manager backoff wait spans", shards),

		mask:    uint32(n - 1),
		scratch: make([]probeScratch, n),
	}
}

// foldAttempt records the attempt's open and acquire tallies.
func (p *Probe) foldAttempt(shard int, tx *stm.Tx) {
	p.Opens.Add(shard, int64(tx.OpenCalls()))
	p.Acquires.Add(shard, int64(tx.AcquireCount()))
}

// OnBegin implements stm.Probe (no-op; attempts fold in at attempt end).
func (p *Probe) OnBegin(*stm.Tx) {}

// OnCommit implements stm.Probe.
func (p *Probe) OnCommit(tx *stm.Tx) {
	shard := tx.D.ThreadID
	p.foldAttempt(shard, tx)
	s := &p.scratch[uint32(shard)&p.mask]
	s.lastID, s.lastAttempt = tx.D.ID.Load(), tx.D.Attempts
}

// OnAbort implements stm.Probe. Attempts that reached the commit point
// before aborting (a remote abort beat the status CAS) were already folded
// by OnCommit.
func (p *Probe) OnAbort(tx *stm.Tx) {
	shard := tx.D.ThreadID
	s := &p.scratch[uint32(shard)&p.mask]
	if s.lastID != tx.D.ID.Load() || s.lastAttempt != tx.D.Attempts {
		p.foldAttempt(shard, tx)
	}
}

// OnResolve implements stm.Probe: it records the decision mix and the wait
// spans the runtime will honor.
func (p *Probe) OnResolve(tx, enemy *stm.Tx, kind stm.Kind, dec stm.Decision, wait time.Duration) {
	shard := tx.D.ThreadID
	switch dec {
	case stm.AbortEnemy:
		p.ResolveAbortEnemy.Inc(shard)
	case stm.AbortSelf:
		p.ResolveAbortSelf.Inc(shard)
	case stm.Wait:
		p.ResolveWait.Inc(shard)
		p.WaitNs.Observe(shard, int64(wait))
	}
}
