package cm

import (
	"time"

	"wincm/internal/stm"
)

// Karma prioritizes transactions by the amount of work invested: every
// successfully opened object adds a point of karma, karma survives aborts,
// and is reset on commit. On conflict, if the attacker's karma (plus the
// number of conflict rounds already spent, so it eventually wins) reaches
// the enemy's, the enemy is aborted; otherwise the attacker waits briefly
// and re-examines.
type Karma struct {
	stm.NopManager
	// WaitSpan is the fixed pause between karma re-examinations.
	WaitSpan time.Duration
}

// NewKarma returns a Karma manager with the default re-examination pause.
func NewKarma() *Karma { return &Karma{WaitSpan: baseWait} }

// Resolve implements stm.ContentionManager.
func (k *Karma) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	mine := tx.D.Karma.Load() + int64(attempt-1)
	theirs := enemy.D.Karma.Load()
	if mine >= theirs {
		return stm.AbortEnemy, 0
	}
	return stm.Wait, k.WaitSpan
}

// Opened implements stm.ContentionManager: each opened object is a point
// of karma.
func (k *Karma) Opened(tx *stm.Tx) { tx.D.Karma.Add(1) }

// Committed implements stm.ContentionManager: commit spends the karma.
func (k *Karma) Committed(tx *stm.Tx) { tx.D.Karma.Store(0) }

// Polka combines Karma's priorities with Polite's exponential backoff: the
// attacker gives the enemy a number of exponentially growing waiting rounds
// equal to the difference in priorities before aborting it. Scherer & Scott
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
