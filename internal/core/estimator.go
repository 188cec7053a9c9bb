package core

import (
	"math"
	"sync/atomic"
)

// cCap bounds contention estimates; beyond it α saturates at N anyway for
// every realistic configuration, so growth past the cap is pure overflow
// risk with no behavioural effect.
const cCap = 1 << 20

// estimator evolves a thread's contention estimate C_i under one of the
// three EstimatorKind rules. It is a value held inside the thread's padded
// threadState, so its per-attempt writes stay on the thread's own cache
// lines. Only that thread writes it; C_i is a single-writer atomic so the
// gauges can load it from any goroutine.
type estimator struct {
	kind EstimatorKind
	// c holds the float64 bits of the current estimate C_i ≥ 1.
	c atomic.Uint64
	// ci is the contention intensity CI (EstimatorCI only).
	ci float64
}

// init makes e an estimator of kind. The Fixed rule keeps the configured
// C_i: the Online variants assume the contention measure is known. The
// learning rules start at C_i = 1.
func (e *estimator) init(kind EstimatorKind, initialC float64) {
	switch kind {
	case EstimatorDoubling, EstimatorCI:
		e.kind = kind
		e.set(1)
	default:
		e.kind = EstimatorFixed
		e.set(math.Max(initialC, 1))
	}
}

// value returns the current estimate C_i ≥ 1.
func (e *estimator) value() float64 { return math.Float64frombits(e.c.Load()) }

// set stores the estimate C_i.
func (e *estimator) set(c float64) { e.c.Store(math.Float64bits(c)) }

// CI parameters: the EWMA weight follows Adaptive Transaction Scheduling
// (Yoo & Lee, SPAA'08: CI ← α·CI + (1−α)·CC with α = 0.75); the decay
// threshold is ATS's scheduling threshold.
const (
	ciAlpha     = 0.75
	ciThreshold = 0.5
)

// sample records the outcome of one attempt (aborted or committed); only
// the CI rule keeps an intensity to fold it into.
func (e *estimator) sample(aborted bool) {
	if e.kind != EstimatorCI {
		return
	}
	s := 0.0
	if aborted {
		s = 1
	}
	e.ci = ciAlpha*e.ci + (1-ciAlpha)*s
}

// onBadEvent reacts to a transaction missing its assigned frame; it
// reports whether the estimate changed (⇒ restart the remaining window
// schedule under the new estimate). Doubling is the paper's Adaptive rule:
// the correct C_i is reached within log C_i iterations. CI is our
// instantiation of Adaptive-Improved: a bad event multiplies C_i by
// (1 + CI), at least +1 (DESIGN.md §2).
func (e *estimator) onBadEvent() bool {
	c := e.value()
	if e.kind == EstimatorFixed || c >= cCap {
		return false
	}
	if e.kind == EstimatorDoubling {
		e.set(2 * c)
		return true
	}
	e.set(math.Min(math.Max(c+1, math.Ceil(c*(1+e.ci))), cCap))
	return true
}

// onWindowEnd runs when a full window segment completes; hadBad says
// whether any of its transactions hit a bad event. Under the CI rule a
// window that finishes clean while contention is low halves C_i, letting
// the schedule tighten again.
func (e *estimator) onWindowEnd(hadBad bool) {
	if c := e.value(); e.kind == EstimatorCI && !hadBad && e.ci < ciThreshold && c > 1 {
		e.set(math.Max(1, math.Floor(c/2)))
	}
}
