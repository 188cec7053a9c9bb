package rng

import "math"

// Zipf draws keys in [0, n) with a Zipfian frequency distribution: key k
// is drawn with probability proportional to 1/(k+1)^theta. It implements
// the classic Gray et al. "Quickly Generating Billion-Record Synthetic
// Databases" generator (the one YCSB popularized), which supports the
// skew exponents theta in [0, 1) that real key-popularity traces show —
// theta 0 is uniform, theta 0.99 is the YCSB default "zipfian" hotspot
// regime where ~10% of the keys draw ~70% of the accesses.
//
// The harmonic normalizer zeta(n, theta) is computed once at
// construction (O(n), a few ms for millions of keys); every draw after
// that is O(1). A Zipf is driven by the caller's Rand and is therefore
// deterministic and single-goroutine, like everything else in this
// package: give each load-generator client its own Split stream and its
// own Zipf.
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	half  float64 // 1 + 0.5^theta, the two-element fast path bound
}

// NewZipf builds a generator over [0, n) with skew theta. n must be > 0
// and theta in [0, 1); theta == 0 degenerates to uniform.
func NewZipf(n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("rng: NewZipf with n == 0")
	}
	if !(theta >= 0 && theta < 1) { // also rejects NaN
		panic("rng: NewZipf theta must be in [0, 1)")
	}
	z := &Zipf{n: n, theta: theta}
	if theta == 0 {
		return z
	}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	zeta2 := zeta(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	z.half = 1 + math.Pow(0.5, theta)
	return z
}

// zeta returns the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var sum float64
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next key in [0, n), most popular first: key 0 is the
// hottest, key 1 the second hottest, and so on. Callers that want the
// hot set spread across the key space (and hence across hash shards)
// should scramble the result themselves; routing in this repository
// hashes keys anyway, so the hot keys land on shards uniformly.
func (z *Zipf) Next(r *Rand) uint64 {
	if z.theta == 0 {
		return r.Uint64n(z.n)
	}
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}
