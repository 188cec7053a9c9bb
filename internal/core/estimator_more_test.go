package core

import "testing"

// newEstimator returns an estimator of kind set up as a thread's is.
func newEstimator(kind EstimatorKind, initialC float64) *estimator {
	e := new(estimator)
	e.init(kind, initialC)
	return e
}

// estimatorAt returns an estimator of kind at estimate c and intensity ci.
func estimatorAt(kind EstimatorKind, c, ci float64) *estimator {
	e := &estimator{kind: kind, ci: ci}
	e.set(c)
	return e
}

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
	e := estimatorAt(EstimatorCI, cCap, 1)
	if e.onBadEvent() {
		t.Error("grew past cap")
	}
	e.set(cCap - 1)
	if !e.onBadEvent() {
		t.Error("no growth below cap")
	}
	if e.value() > cCap {
		t.Errorf("c = %v beyond cap", e.value())
	}
}

// TestCIDecayFloor: decay never drops the estimate below 1.
func TestCIDecayFloor(t *testing.T) {
	e := estimatorAt(EstimatorCI, 1, 0)
	e.onWindowEnd(false)
	if e.value() < 1 {
		t.Errorf("decayed below 1: %v", e.value())
	}
}
