package core

import "testing"

// TestNewEstimatorKinds: the factory maps kinds to behaviours, clamping
// the initial estimate to ≥ 1.
func TestNewEstimatorKinds(t *testing.T) {
	if e := newEstimator(EstimatorFixed, 0.25); e.value() != 1 {
		t.Errorf("fixed floor = %v", e.value())
	}
	if e := newEstimator(EstimatorDoubling, 7); e.value() != 1 {
		t.Errorf("doubling initial = %v, want 1 (paper: start at C=1)", e.value())
	}
	if e := newEstimator(EstimatorCI, 7); e.value() != 1 {
		t.Errorf("CI initial = %v, want 1", e.value())
	}
}

// TestCIEstimatorCap: growth saturates at the overflow cap.
func TestCIEstimatorCap(t *testing.T) {
	e := &estimator{kind: EstimatorCI, c: cCap, ci: 1}
	if e.onBadEvent() {
		t.Error("grew past cap")
	}
	e.c = cCap - 1
	if !e.onBadEvent() {
		t.Error("no growth below cap")
	}
	if e.c > cCap {
		t.Errorf("c = %v beyond cap", e.c)
	}
}

// TestCIDecayFloor: decay never drops the estimate below 1.
func TestCIDecayFloor(t *testing.T) {
	e := &estimator{kind: EstimatorCI, c: 1, ci: 0}
	e.onWindowEnd(false)
	if e.c < 1 {
		t.Errorf("decayed below 1: %v", e.c)
	}
}
