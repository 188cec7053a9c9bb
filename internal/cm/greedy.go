package cm

import (
	"time"

	"wincm/internal/stm"
)

// Greedy is the first contention manager with provable properties
// (Guerraoui, Herlihy & Pochon). Every transaction carries a static
// timestamp from its first attempt. On conflict the attacker aborts the
// enemy if the enemy is younger or is itself waiting; otherwise the
// attacker waits (and is marked waiting, so the older enemy can kill it if
// they meet again). The timestamp order is total, so exactly one side of
// any conflict pair can wait indefinitely — the pending-commit property.
// The attacker polls an older enemy every baseWait.
type Greedy struct{ stm.NopManager }

// NewGreedy returns a Greedy manager.
func NewGreedy() *Greedy { return &Greedy{} }

// Resolve implements stm.ContentionManager.
func (g *Greedy) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	if older(tx, enemy) || enemy.D.Waiting.Load() {
		return stm.AbortEnemy, 0
	}
	return stm.Wait, baseWait
}

// Priority is the static priority manager from Scherer & Scott: the
// priority of a transaction is its start time; lower-priority (younger)
// transactions are aborted on conflict, and a lower-priority attacker
// polls until the older enemy finishes (it can neither abort the enemy
// nor usefully restart — its priority would not change). The timestamp
// order is total, so waits cannot be mutual. The stalled attacker polls
// every baseWait.
type Priority struct{ stm.NopManager }

// NewPriority returns a Priority manager.
func NewPriority() *Priority { return &Priority{} }

// Resolve implements stm.ContentionManager.
func (p *Priority) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	if older(tx, enemy) {
		return stm.AbortEnemy, 0
	}
	return stm.Wait, baseWait
}

// Timestamp is Scherer & Scott's timestamp manager: like Priority but the
// younger transaction first grants the older one a bounded series of waits,
// aborting the enemy only if it seems stalled past those rounds.
type Timestamp struct{ stm.NopManager }

// timestampRounds is the classic number of waiting rounds granted to an
// older enemy.
const timestampRounds = 8

// NewTimestamp returns a Timestamp manager.
func NewTimestamp() *Timestamp { return &Timestamp{} }

// Resolve implements stm.ContentionManager.
func (t *Timestamp) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	if older(tx, enemy) {
		return stm.AbortEnemy, 0
	}
	if attempt > timestampRounds {
		return stm.AbortEnemy, 0
	}
	return stm.Wait, backoffSpan(attempt)
}

// older reports whether tx's logical transaction started strictly before
// enemy's, breaking timestamp ties by the unique transaction ID so the
// order is total (required for progress).
func older(tx, enemy *stm.Tx) bool {
	if tx.D.Birth.Load() != enemy.D.Birth.Load() {
		return tx.D.Birth.Load() < enemy.D.Birth.Load()
	}
	return tx.D.ID.Load() < enemy.D.ID.Load()
}
