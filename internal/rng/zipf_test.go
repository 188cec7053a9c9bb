package rng_test

import (
	"math"
	"testing"

	"wincm/internal/rng"
)

// TestZipfBounds checks every draw lands in [0, n) across skews,
// including the degenerate uniform case and a tiny key space.
func TestZipfBounds(t *testing.T) {
	for _, theta := range []float64{0, 0.5, 0.99} {
		for _, n := range []uint64{1, 2, 10, 100000} {
			z := rng.NewZipf(n, theta)
			r := rng.New(7)
			for i := 0; i < 20000; i++ {
				if k := z.Next(r); k >= n {
					t.Fatalf("theta=%v n=%d: draw %d out of range", theta, n, k)
				}
			}
		}
	}
}

// TestZipfDeterminism: the same seed must replay the same key sequence —
// the property every randomized component of the repo leans on.
func TestZipfDeterminism(t *testing.T) {
	za, zb := rng.NewZipf(1<<20, 0.99), rng.NewZipf(1<<20, 0.99)
	ra, rb := rng.New(42), rng.New(42)
	for i := 0; i < 10000; i++ {
		if a, b := za.Next(ra), zb.Next(rb); a != b {
			t.Fatalf("draw %d diverged: %d vs %d", i, a, b)
		}
	}
}

// TestZipfSkew: raising theta must concentrate mass on the head keys.
// With a million keys, uniform puts ~0% of draws on the top-10 keys
// while theta=0.99 puts a large share there; theta=0.5 sits between.
func TestZipfSkew(t *testing.T) {
	const n, draws = 1 << 20, 200000
	headShare := func(theta float64) float64 {
		z := rng.NewZipf(n, theta)
		r := rng.New(99)
		head := 0
		for i := 0; i < draws; i++ {
			if z.Next(r) < 10 {
				head++
			}
		}
		return float64(head) / draws
	}
	uniform, mid, hot := headShare(0), headShare(0.5), headShare(0.99)
	if !(uniform < mid && mid < hot) {
		t.Fatalf("head shares not increasing with skew: %v, %v, %v", uniform, mid, hot)
	}
	if hot < 0.10 {
		t.Fatalf("theta=0.99 head share %v implausibly flat", hot)
	}
	if uniform > 0.001 {
		t.Fatalf("uniform head share %v implausibly hot", uniform)
	}
}

// TestZipfPanics: the constructor rejects the configurations the load
// generator's flag validation must also reject.
func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     uint64
		theta float64
	}{
		{"zero n", 0, 0.5},
		{"theta 1", 10, 1},
		{"theta negative", 10, -0.1},
		{"theta NaN", 10, math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			rng.NewZipf(tc.n, tc.theta)
		}()
	}
}
