package rng_test

import (
	"math"
	"testing"
	"testing/quick"

	"wincm/internal/rng"
)

func TestDeterminism(t *testing.T) {
	a, b := rng.New(42), rng.New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := rng.New(43)
	same := 0
	a = rng.New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	r := rng.New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Errorf("zero-seeded stream produced %d distinct values of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	r := rng.New(7)
	s1 := r.Split()
	s2 := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if s1.Uint64() == s2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams collided %d/100 times", same)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		r := rng.New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	rng.New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) did not panic")
		}
	}()
	rng.New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := rng.New(11)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %v, want ≈ 0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := rng.New(13)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if p := float64(hits) / n; p < 0.22 || p > 0.28 {
		t.Errorf("Bool(0.25) frequency = %v", p)
	}
}

func TestUniformity(t *testing.T) {
	r := rng.New(17)
	const buckets, draws = 16, 32000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.15 {
			t.Errorf("bucket %d has %d draws, want ≈ %.0f", b, c, want)
		}
	}
}

func TestGeometricLevel(t *testing.T) {
	r := rng.New(29)
	const n = 40000
	var sum int
	for i := 0; i < n; i++ {
		l := r.GeometricLevel(0.5, 16)
		if l < 0 || l > 16 {
			t.Fatalf("level %d out of range", l)
		}
		sum += l
	}
	// E[level] for p=0.5 capped at 16 ≈ 1.
	if mean := float64(sum) / n; mean < 0.9 || mean > 1.1 {
		t.Errorf("mean level = %v, want ≈ 1", mean)
	}
	if l := r.GeometricLevel(0, 16); l != 0 {
		t.Errorf("p=0 gave level %d", l)
	}
	if l := r.GeometricLevel(1, 5); l != 5 {
		t.Errorf("p=1 gave level %d, want cap 5", l)
	}
}
