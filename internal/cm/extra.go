package cm

import (
	"sync"
	"time"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// This file implements the remaining managers the paper's related-work
// discussion draws on: RandomizedRounds (Schneider & Wattenhofer) — the
// subroutine the window Online algorithm builds on — plus Scherer &
// Scott's SizeMatters, Eruption and Kindergarten.

// RandomizedRounds assigns every attempt a uniform random priority in
// [1, M], redrawn after every abort; the higher random priority wins a
// conflict (ties broken by transaction ID). It is exactly the conflict
// resolution the window-based Online algorithm applies inside frames,
// without windows or frames — benchmarking it against "online" isolates
// what the window structure itself contributes.
type RandomizedRounds struct {
	stm.NopManager
	m int

	mu  sync.Mutex
	rnd *rng.Rand
}

// NewRandomizedRounds returns a manager for m threads.
func NewRandomizedRounds(m int) *RandomizedRounds {
	return &RandomizedRounds{m: m, rnd: rng.New(0xabcdef)}
}

// draw stores a fresh random priority in the descriptor's Aux slot.
func (r *RandomizedRounds) draw(tx *stm.Tx) {
	r.mu.Lock()
	p := uint64(1 + r.rnd.Intn(r.m))
	r.mu.Unlock()
	tx.D.Aux.Store(p)
}

// Begin implements stm.ContentionManager.
func (r *RandomizedRounds) Begin(tx *stm.Tx) {
	if tx.D.Attempts == 1 {
		r.draw(tx)
	}
}

// Aborted implements stm.ContentionManager: redraw after every abort.
func (r *RandomizedRounds) Aborted(tx *stm.Tx) { r.draw(tx) }

// Resolve implements stm.ContentionManager.
func (r *RandomizedRounds) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	mine, theirs := tx.D.Aux.Load(), enemy.D.Aux.Load()
	if mine < theirs || (mine == theirs && tx.D.ID.Load() < enemy.D.ID.Load()) {
		return stm.AbortEnemy, 0
	}
	if attempt <= 12 {
		exp := attempt - 1
		if exp > 10 {
			exp = 10
		}
		return stm.Wait, baseWait << uint(exp)
	}
	return stm.AbortSelf, 0
}

// SizeMatters prioritizes by the number of objects currently opened (the
// attempt's footprint) rather than karma accumulated across retries: the
// bigger transaction wins, the smaller waits briefly and then yields.
type SizeMatters struct {
	stm.NopManager
	// WaitSpan is the pause between size re-examinations.
	WaitSpan time.Duration
	// Rounds bounds the waits before the smaller side aborts itself.
	Rounds int
}

// NewSizeMatters returns a SizeMatters manager with classic parameters.
func NewSizeMatters() *SizeMatters {
	return &SizeMatters{WaitSpan: baseWait, Rounds: 8}
}

// Begin implements stm.ContentionManager: footprint restarts at zero
// every attempt (unlike Karma, aborts forfeit the invested size).
func (s *SizeMatters) Begin(tx *stm.Tx) { tx.D.Karma.Store(0) }

// Opened implements stm.ContentionManager.
func (s *SizeMatters) Opened(tx *stm.Tx) { tx.D.Karma.Add(1) }

// Resolve implements stm.ContentionManager.
func (s *SizeMatters) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	mine, theirs := tx.D.Karma.Load(), enemy.D.Karma.Load()
	if mine > theirs || (mine == theirs && tx.D.ID.Load() < enemy.D.ID.Load()) {
		return stm.AbortEnemy, 0
	}
	if attempt <= s.Rounds {
		return stm.Wait, s.WaitSpan
	}
	return stm.AbortSelf, 0
}

// Eruption passes "momentum" through conflicts: a blocked transaction
// adds its own accumulated pressure to the transaction blocking it, so
// hot-spot holders erupt through quickly. Pressure lives in the Aux slot;
// karma counts opened objects as in Karma.
type Eruption struct {
	stm.NopManager
	// WaitSpan is the pause between pressure re-examinations.
	WaitSpan time.Duration
}

// NewEruption returns an Eruption manager.
func NewEruption() *Eruption { return &Eruption{WaitSpan: baseWait} }

// Opened implements stm.ContentionManager.
func (e *Eruption) Opened(tx *stm.Tx) { tx.D.Karma.Add(1) }

// Begin implements stm.ContentionManager: pressure resets per attempt.
func (e *Eruption) Begin(tx *stm.Tx) { tx.D.Aux.Store(0) }

// Committed implements stm.ContentionManager.
func (e *Eruption) Committed(tx *stm.Tx) {
	tx.D.Karma.Store(0)
	tx.D.Aux.Store(0)
}

// pressure is a transaction's momentum: opened objects plus everything
// transferred by waiters.
func pressure(tx *stm.Tx) int64 {
	return tx.D.Karma.Load() + int64(tx.D.Aux.Load())
}

// Resolve implements stm.ContentionManager.
func (e *Eruption) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	if pressure(tx) > pressure(enemy) || (pressure(tx) == pressure(enemy) && tx.D.ID.Load() < enemy.D.ID.Load()) {
		return stm.AbortEnemy, 0
	}
	// Transfer momentum on first contact, then wait.
	if attempt == 1 {
		enemy.D.Aux.Add(uint64(tx.D.Karma.Load()))
	}
	if attempt <= 10 {
		return stm.Wait, e.WaitSpan
	}
	return stm.AbortSelf, 0
}

// Kindergarten makes transactions take turns: each side maintains a list
// of enemies it has already yielded to (a "hit list"); the first conflict
// with a stranger defers, a repeat conflict with someone already deferred
// to aborts them — "you had your turn".
type Kindergarten struct {
	stm.NopManager
	// WaitSpan is the pause granted when deferring.
	WaitSpan time.Duration

	mu      sync.Mutex
	yielded map[uint64]map[uint64]bool // thread desc ID → enemy IDs deferred to
}

// NewKindergarten returns a Kindergarten manager.
func NewKindergarten() *Kindergarten {
	return &Kindergarten{WaitSpan: baseWait, yielded: make(map[uint64]map[uint64]bool)}
}

// Begin implements stm.ContentionManager: a fresh logical transaction
// starts with a clean hit list.
func (k *Kindergarten) Begin(tx *stm.Tx) {
	if tx.D.Attempts == 1 {
		k.mu.Lock()
		delete(k.yielded, tx.D.ID.Load())
		k.mu.Unlock()
	}
}

// Resolve implements stm.ContentionManager.
func (k *Kindergarten) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	k.mu.Lock()
	hit := k.yielded[tx.D.ID.Load()]
	already := hit != nil && hit[enemy.D.ID.Load()]
	if !already {
		if hit == nil {
			hit = make(map[uint64]bool, 4)
			k.yielded[tx.D.ID.Load()] = hit
		}
		hit[enemy.D.ID.Load()] = true
	}
	k.mu.Unlock()
	if already {
		return stm.AbortEnemy, 0
	}
	if attempt <= 8 {
		return stm.Wait, k.WaitSpan
	}
	return stm.AbortSelf, 0
}

func init() {
	Register("randomized-rounds", func(m int) stm.ContentionManager { return NewRandomizedRounds(m) })
	Register("sizematters", func(int) stm.ContentionManager { return NewSizeMatters() })
	Register("eruption", func(int) stm.ContentionManager { return NewEruption() })
	Register("kindergarten", func(int) stm.ContentionManager { return NewKindergarten() })
}
