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
type Polka struct {
	stm.NopManager
	// MaxRounds bounds the total rounds granted regardless of the priority
	// gap, keeping waits finite against very high-karma enemies.
	MaxRounds int
}

// NewPolka returns a Polka manager with the standard round bound.
func NewPolka() *Polka { return &Polka{MaxRounds: 16} }

// Resolve implements stm.ContentionManager.
func (p *Polka) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	gap := enemy.D.Karma.Load() - tx.D.Karma.Load()
	if gap < 0 {
		gap = 0
	}
	rounds := int(gap)
	if rounds > p.MaxRounds {
		rounds = p.MaxRounds
	}
	if attempt > rounds {
		return stm.AbortEnemy, 0
	}
	return stm.Wait, backoffSpan(attempt)
}

// Opened implements stm.ContentionManager: each opened object is a point
// of karma.
func (p *Polka) Opened(tx *stm.Tx) { tx.D.Karma.Add(1) }

// Committed implements stm.ContentionManager: commit spends the karma.
func (p *Polka) Committed(tx *stm.Tx) { tx.D.Karma.Store(0) }
