package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"wincm/internal/stm"
)

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{
		Online:                  "online",
		OnlineDynamic:           "online-dynamic",
		Adaptive:                "adaptive",
		AdaptiveImproved:        "adaptive-improved",
		AdaptiveImprovedDynamic: "adaptive-improved-dynamic",
		Variant(99):             "invalid",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
	}
}

func TestParseVariantRoundTrip(t *testing.T) {
	for _, v := range Variants() {
		got, err := ParseVariant(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVariant(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVariant("nope"); err == nil {
		t.Error("ParseVariant(nope) succeeded")
	}
}

func TestDefaultConfig(t *testing.T) {
	for _, v := range Variants() {
		c := DefaultConfig(v, 8)
		if c.M != 8 || c.N != 50 {
			t.Errorf("%v: M,N = %d,%d", v, c.M, c.N)
		}
		wantDyn := v == OnlineDynamic || v == AdaptiveImprovedDynamic
		if c.Dynamic != wantDyn {
			t.Errorf("%v: Dynamic = %v, want %v", v, c.Dynamic, wantDyn)
		}
	}
}

func TestAlphaBounds(t *testing.T) {
	// α is always in [1, N] regardless of the estimate.
	f := func(c float64, m, n uint8) bool {
		mm, nn := int(m)+1, int(n)+1
		a := alpha(math.Abs(c), mm, nn)
		return a >= 1 && a <= int64(nn)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlphaFormula(t *testing.T) {
	// C = 2·ln(MN) should give α = 2 when N allows it.
	m, n := 32, 50
	c := 2 * lnMN(m, n)
	if a := alpha(c, m, n); a != 2 {
		t.Errorf("alpha = %d, want 2", a)
	}
	if a := alpha(1e12, m, n); a != int64(n) {
		t.Errorf("alpha capped = %d, want %d", a, n)
	}
	if a := alpha(0, m, n); a != 1 {
		t.Errorf("alpha floor = %d, want 1", a)
	}
}

func TestAuxPacking(t *testing.T) {
	f := func(frame uint32, p2 uint16) bool {
		aux := packAux(int64(frame), uint64(p2))
		return auxFrame(aux) == int64(frame) && auxP2(aux) == uint64(p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedEstimator(t *testing.T) {
	e := newEstimator(EstimatorFixed, 17)
	if e.value() != 17 {
		t.Errorf("value = %v", e.value())
	}
	if e.onBadEvent() {
		t.Error("fixed estimator reacted to bad event")
	}
	e.sample(true)
	e.onWindowEnd(true)
	if e.value() != 17 {
		t.Errorf("value changed to %v", e.value())
	}
}

func TestDoublingEstimator(t *testing.T) {
	e := newEstimator(EstimatorDoubling, 99) // initial ignored: starts at 1
	if e.value() != 1 {
		t.Fatalf("initial = %v, want 1", e.value())
	}
	for i, want := range []float64{2, 4, 8, 16} {
		if !e.onBadEvent() {
			t.Fatalf("bad event %d did not change the estimate", i)
		}
		if e.value() != want {
			t.Fatalf("after %d bad events: %v, want %v", i+1, e.value(), want)
		}
	}
}

func TestDoublingEstimatorCaps(t *testing.T) {
	e := estimatorAt(EstimatorDoubling, cCap, 0)
	if e.onBadEvent() {
		t.Error("estimator grew past the cap")
	}
	if e.value() != cCap {
		t.Errorf("value = %v", e.value())
	}
}

func TestCIEstimatorGrowsWithContention(t *testing.T) {
	e := estimatorAt(EstimatorCI, 1, 0)
	// All-abort samples drive CI toward 1.
	for i := 0; i < 50; i++ {
		e.sample(true)
	}
	if e.ci < 0.9 {
		t.Fatalf("ci = %v, want ≈ 1", e.ci)
	}
	before := e.value()
	e.onBadEvent()
	if e.value() < before+1 {
		t.Errorf("estimate %v did not grow from %v", e.value(), before)
	}
	// High-contention growth should exceed +1 once c is large.
	e.set(100)
	e.onBadEvent()
	if e.value() < 190 {
		t.Errorf("CI growth too small: %v (want ≈ c·(1+ci))", e.value())
	}
}

func TestCIEstimatorDecaysWhenQuiet(t *testing.T) {
	e := estimatorAt(EstimatorCI, 64, 0)
	for i := 0; i < 50; i++ {
		e.sample(false) // all commits: CI → 0
	}
	e.onWindowEnd(false)
	if e.value() != 32 {
		t.Errorf("after clean window: %v, want 32", e.value())
	}
	e.onWindowEnd(true) // bad window: no decay
	if e.value() != 32 {
		t.Errorf("decayed after a bad window: %v", e.value())
	}
}

func TestCIEstimatorMonotoneSamples(t *testing.T) {
	// CI stays within [0, 1] for any sample sequence.
	f := func(samples []bool) bool {
		e := estimatorAt(EstimatorCI, 1, 0)
		for _, s := range samples {
			e.sample(s)
			if e.ci < 0 || e.ci > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameClockStaticAdvancesWithTime(t *testing.T) {
	c := newFrameClock(false, 2*time.Millisecond, 50)
	if f := c.Current(); f != 0 {
		t.Fatalf("initial frame = %d", f)
	}
	time.Sleep(5 * time.Millisecond)
	if f := c.Current(); f < 2 {
		t.Errorf("frame after 5ms of 2ms frames = %d, want ≥ 2", f)
	}
}

func TestFrameClockMinDuration(t *testing.T) {
	c := newFrameClock(false, 0, 50)
	if d := c.dur.Load(); d < int64(minFrameDur) {
		t.Errorf("duration %d below minimum", d)
	}
}

func TestFrameClockDynamicContraction(t *testing.T) {
	c := newFrameClock(true, time.Hour, 2) // time can never advance it
	c.open(0, 0, 2)
	c.open(1, 3, 1) // frame 2 intentionally empty
	if f := c.Current(); f != 0 {
		t.Fatalf("frame = %d, want 0", f)
	}
	c.retire(0)
	if f := c.Current(); f != 1 {
		t.Fatalf("after draining frame 0: %d, want 1", f)
	}
	c.retire(0)
	// Contraction must skip the empty frame 2 straight to 3.
	if f := c.Current(); f != 3 {
		t.Fatalf("after draining frame 1: %d, want 3 (skip empty)", f)
	}
	c.retire(1)
	// Nothing registered ahead: the clock idles at the last frame + 1 step.
	if f := c.Current(); f > 4 {
		t.Fatalf("clock ran ahead to %d", f)
	}
}

func TestFrameClockDynamicExpansionCap(t *testing.T) {
	c := newFrameClock(true, time.Millisecond, 1)
	c.open(0, 0, 1)
	// Never commit: the frame must still end after expandFactor durations.
	deadline := time.Now().Add(200 * time.Millisecond)
	for c.Current() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("expansion cap never advanced the frame")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFrameClockUnregister(t *testing.T) {
	c := newFrameClock(true, time.Hour, 3)
	c.open(0, 0, 1)
	c.open(1, 0, 1)
	c.drop(0)
	if f := c.Current(); f != 0 {
		t.Fatalf("frame = %d, want 0 (one registration left)", f)
	}
	c.drop(1)
	if f := c.Current(); f != 1 {
		// Draining the current frame steps once; maxReg stops the skip.
		t.Fatalf("frame = %d, want 1", f)
	}
	c.open(2, 5, 1)
	c.retire(2) // not the current frame: bookkeeping only
	if f := c.Current(); f != 1 {
		t.Fatalf("frame = %d, want 1", f)
	}
}

func TestNewManagerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewManager accepted M=0")
		}
	}()
	NewManager(Config{M: 0, N: 50})
}

func TestManagerDefaultsFilledIn(t *testing.T) {
	m := NewManager(Config{M: 2, N: 4})
	if m.Config().InitialC != 1 {
		t.Errorf("defaults not applied: %+v", m.Config())
	}
}

// TestNewNamed: the one constructor from a manager name builds window
// variants at the paper's N with the given seed (and hands them back
// typed), sends every other name to the cm registry, and rejects unknown
// names.
func TestNewNamed(t *testing.T) {
	mgr, wm, err := NewNamed("online-dynamic", 4, 7)
	if err != nil || wm == nil || mgr != stm.ContentionManager(wm) {
		t.Fatalf("window variant: mgr=%v wm=%v err=%v", mgr, wm, err)
	}
	if c := wm.Config(); c.N != 50 || c.Seed != 7 || c.M != 4 || !c.Dynamic {
		t.Errorf("window config = %+v, want N=50 Seed=7 M=4 Dynamic", c)
	}
	mgr, wm, err = NewNamed("polka", 4, 7)
	if err != nil || mgr == nil || wm != nil {
		t.Errorf("classic manager: mgr=%v wm=%v err=%v (wm must be nil)", mgr, wm, err)
	}
	if _, _, err := NewNamed("bogus", 4, 1); err == nil {
		t.Error("unknown manager name accepted")
	}
}
