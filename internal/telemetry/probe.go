package telemetry

import (
	"time"

	"wincm/internal/stm"
)

// Probe instruments the STM hot path through the runtime's existing probe
// seam (stm.Probe): open/acquire/commit/abort counts and, from OnResolve,
// the conflict decision mix and the backoff-wait histogram.
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
	// CommitCalls counts commit-point entries (before validation, so it
	// includes attempts whose validation then fails).
	CommitCalls *Counter
	// AbortEvents counts attempts that aborted (probe-visible aborts).
	AbortEvents *Counter
	// Resolutions counts conflict resolutions by final decision.
	ResolveAbortEnemy, ResolveAbortSelf, ResolveWait *Counter
	// WaitNs is the histogram of granted Wait spans (CM backoff waits).
	WaitNs *Histogram
	// Lock-free hot-path gauges (ISSUE 3): ownership-CAS retries, visible
	// reads that landed in a spill-table slot rather than an inline one, and
	// the spill-table pool's hit/miss split. All folded in at attempt end.
	CASRetries, ReaderSpills, SpillPoolHits, SpillPoolMisses *Counter
	// Locator-recycling instruments (ISSUE 5): how often the write path's
	// locator came from the per-thread pool versus the allocator, and how
	// often sealing a retire batch advanced the reclamation epoch. Folded
	// in at attempt end like the rest.
	LocatorPoolHits, LocatorPoolMisses, EpochAdvances *Counter
	// Semantic-structure instruments (ISSUE 9): key-level conflicts routed
	// through the contention manager or failed semantic validations,
	// structural modifications (splits, root growth) executed off every
	// conflict set, and the false conflicts the key-level slow path proved
	// harmless. The Tx tallies behind these are thread-lifetime cumulative
	// (structural work lands in Finalize, after OnCommit has folded the
	// attempt), so folding records deltas against per-thread baselines.
	BTreeSemanticConflicts, BTreeStructuralOps, BTreeFalseConflictsAvoided *Counter

	mask    uint32
	scratch []probeScratch
}

// probeScratch is per-thread bookkeeping for attempt-end folding: which
// attempt OnCommit already recorded, so an attempt aborted remotely
// between OnCommit and the status CAS (OnCommit then OnAbort on the same
// attempt) is not counted twice, plus the baselines the cumulative
// semantic tallies are folded against. Owner-thread-only plain fields;
// nothing else reads them.
type probeScratch struct {
	lastID      uint64
	lastAttempt int
	lastSem     int64
	lastSmo     int64
	lastFalse   int64
	_           [shardPad - 40]byte
}

var _ stm.Probe = (*Probe)(nil)

// NewProbe registers the hot-path instrument set in r.
func NewProbe(r *Registry, shards int) *Probe {
	n := ceilPow2(shards)
	return &Probe{
		Opens:             r.NewCounter("wincm_opens_total", "transactional opens (reads and writes)", shards),
		Acquires:          r.NewCounter("wincm_acquires_total", "new write ownerships", shards),
		CommitCalls:       r.NewCounter("wincm_commit_calls_total", "commit-point entries", shards),
		AbortEvents:       r.NewCounter("wincm_abort_events_total", "aborted attempts (probe events)", shards),
		ResolveAbortEnemy: r.NewCounter("wincm_resolve_abort_enemy_total", "conflicts resolved by aborting the enemy", shards),
		ResolveAbortSelf:  r.NewCounter("wincm_resolve_abort_self_total", "conflicts resolved by self-abort", shards),
		ResolveWait:       r.NewCounter("wincm_resolve_wait_total", "conflicts resolved by waiting", shards),
		WaitNs:            r.NewHistogram("wincm_cm_wait_ns", "contention-manager backoff wait spans", shards),
		CASRetries:        r.NewCounter("wincm_cas_retries_total", "ownership-record CAS retries", shards),
		ReaderSpills:      r.NewCounter("wincm_reader_spills_total", "visible reads registered in spill-table slots", shards),
		SpillPoolHits:     r.NewCounter("wincm_spill_pool_hits_total", "spill tables served from the pool", shards),
		SpillPoolMisses:   r.NewCounter("wincm_spill_pool_misses_total", "spill tables freshly allocated", shards),
		LocatorPoolHits:   r.NewCounter("wincm_locator_pool_hits_total", "write-path locators served from the per-thread pool", shards),
		LocatorPoolMisses: r.NewCounter("wincm_locator_pool_misses_total", "write-path locators freshly allocated", shards),
		EpochAdvances:     r.NewCounter("wincm_epoch_advances_total", "reclamation epoch advances performed by batch seals", shards),

		BTreeSemanticConflicts:     r.NewCounter("wincm_btree_semantic_conflicts_total", "key-level semantic conflicts (CM resolutions and failed semantic validations)", shards),
		BTreeStructuralOps:         r.NewCounter("wincm_btree_structural_ops_total", "structural modifications (splits, root growth) executed off every conflict set", shards),
		BTreeFalseConflictsAvoided: r.NewCounter("wincm_btree_false_conflicts_avoided_total", "leaf-version misses the key-level slow path proved harmless", shards),

		mask:    uint32(n - 1),
		scratch: make([]probeScratch, n),
	}
}

// foldAttempt records the attempt's open/acquire and hot-path tallies.
func (p *Probe) foldAttempt(shard int, tx *stm.Tx) {
	p.Opens.Add(shard, int64(tx.OpenCalls()))
	p.Acquires.Add(shard, int64(tx.AcquireCount()))
	p.CASRetries.Add(shard, int64(tx.CASRetries()))
	p.ReaderSpills.Add(shard, int64(tx.ReaderSpills()))
	p.SpillPoolHits.Add(shard, int64(tx.SpillPoolHits()))
	p.SpillPoolMisses.Add(shard, int64(tx.SpillPoolMisses()))
	p.LocatorPoolHits.Add(shard, int64(tx.LocatorPoolHits()))
	p.LocatorPoolMisses.Add(shard, int64(tx.LocatorPoolMisses()))
	p.EpochAdvances.Add(shard, int64(tx.EpochAdvances()))
	// Semantic tallies are thread-lifetime cumulative (see the field
	// comment); fold the delta since this scratch slot's baseline. When
	// shards < threads, a slot is shared and a delta can come out negative
	// — skip the sample and re-baseline rather than corrupt the counter.
	s := &p.scratch[uint32(shard)&p.mask]
	if d := tx.SemanticConflicts() - s.lastSem; d > 0 {
		p.BTreeSemanticConflicts.Add(shard, d)
	}
	if d := tx.StructuralOps() - s.lastSmo; d > 0 {
		p.BTreeStructuralOps.Add(shard, d)
	}
	if d := tx.FalseConflictsAvoided() - s.lastFalse; d > 0 {
		p.BTreeFalseConflictsAvoided.Add(shard, d)
	}
	s.lastSem, s.lastSmo, s.lastFalse = tx.SemanticConflicts(), tx.StructuralOps(), tx.FalseConflictsAvoided()
}

// OnBegin implements stm.Probe (no-op; attempts fold in at attempt end).
func (p *Probe) OnBegin(*stm.Tx) {}

// OnCommit implements stm.Probe.
func (p *Probe) OnCommit(tx *stm.Tx) {
	shard := tx.D.ThreadID
	p.CommitCalls.Inc(shard)
	p.foldAttempt(shard, tx)
	s := &p.scratch[uint32(shard)&p.mask]
	s.lastID, s.lastAttempt = tx.D.ID.Load(), tx.D.Attempts
}

// OnAbort implements stm.Probe. Attempts that reached the commit point
// before aborting (a remote abort beat the status CAS) were already folded
// by OnCommit.
func (p *Probe) OnAbort(tx *stm.Tx) {
	shard := tx.D.ThreadID
	p.AbortEvents.Inc(shard)
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
