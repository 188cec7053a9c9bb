package cm

import (
	"time"

	"wincm/internal/stm"
)

// Polka combines Karma's priorities with Polite's exponential backoff
// (Scherer & Scott): a transaction's priority is its karma, one point per
// object opened, kept across aborts and spent on commit, and the attacker
// gives the enemy a number of exponentially growing waiting rounds equal to
// the difference in priorities before aborting it. Scherer & Scott
// report it as the best overall manager, and the paper uses it as the
// practical yardstick.
type Polka struct{ stm.NopManager }

// polkaMaxRounds bounds the total rounds granted regardless of the
// priority gap, keeping waits finite against very high-karma enemies.
const polkaMaxRounds = 16

// NewPolka returns a Polka manager.
func NewPolka() *Polka { return &Polka{} }

// Resolve implements stm.ContentionManager.
func (p *Polka) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	rounds := min(max(enemy.D.Karma.Load()-tx.D.Karma.Load(), 0), polkaMaxRounds)
	if int64(attempt) > rounds {
		return stm.AbortEnemy, 0
	}
	return stm.Wait, backoffSpan(attempt)
}

// Begin implements stm.ContentionManager: a transaction starts with no
// karma. Committed already spent the last one's, so this stores only after
// a transaction panicked out of Atomic with karma left.
func (p *Polka) Begin(tx *stm.Tx) {
	if tx.D.Attempts == 1 && tx.D.Karma.Load() != 0 {
		tx.D.Karma.Store(0)
	}
}

// Opened implements stm.ContentionManager: each opened object is a point
// of karma.
func (p *Polka) Opened(tx *stm.Tx) { tx.D.Karma.Add(1) }

// Committed implements stm.ContentionManager: commit spends the karma.
func (p *Polka) Committed(tx *stm.Tx) { tx.D.Karma.Store(0) }
