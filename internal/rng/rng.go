// Package rng provides a small, fast, deterministic pseudo-random number
// generator (xoshiro256**) with support for splitting independent streams.
//
// The experiment harness needs reproducible runs: every thread gets its own
// stream derived from a master seed, so a run is a pure function of its
// configuration. math/rand/v2 would work, but a local implementation keeps
// the sequence stable across Go releases, which matters when EXPERIMENTS.md
// records concrete numbers.
package rng

import "math/bits"

// Rand is a xoshiro256** generator. It is not safe for concurrent use;
// give each goroutine its own Rand via Split.
type Rand struct {
	s [4]uint64
}

// splitmix64 is used to seed the state from a single word, as recommended
// by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Any seed, including zero,
// yields a valid non-degenerate state.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	return r
}

// Split returns a new independent generator derived from r's current state.
// r itself is advanced, so successive Splits produce distinct streams.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// GeometricLevel returns the number of successes of independent p-biased
// coin flips before the first failure, capped at max. It is used by the
// skip-list benchmark to draw tower heights.
func (r *Rand) GeometricLevel(p float64, max int) int {
	lvl := 0
	for lvl < max && r.Float64() < p {
		lvl++
	}
	return lvl
}
