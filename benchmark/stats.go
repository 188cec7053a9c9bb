package main

import (
	"sort"
)

// recorder keeps every latency sample of one client. Percentiles come from
// the exact sorted samples: a bucketed histogram with 2× buckets cannot
// show a 10% change.
type recorder struct {
	samples []int64
}

func (r *recorder) add(ns int64) { r.samples = append(r.samples, ns) }

// mergeSorted concatenates the recorders' samples and sorts them.
func mergeSorted(rs []*recorder) []int64 {
	n := 0
	for _, r := range rs {
		n += len(r.samples)
	}
	all := make([]int64, 0, n)
	for _, r := range rs {
		all = append(all, r.samples...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of sorted samples. ok is
// false when fewer than minBeyond samples lie beyond it; the value is then
// not worth reporting.
func percentile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank], n-1-rank >= minBeyond
}

// median of xs (xs is not modified); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(xs, n=4): position i·(n+1)/4 among the sorted values,
// interpolated, clamped to the ends.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// iqrFrac is the interquartile range as a share of the median.
func iqrFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// selfTimes turns cumulative level times — level i includes every deeper
// level — into per-level self times: each level minus the next deeper one,
// the deepest kept whole. They sum to levels[0] by construction.
func selfTimes(levels []float64) []float64 {
	self := make([]float64, len(levels))
	for i := range levels {
		self[i] = levels[i]
		if i+1 < len(levels) {
			self[i] -= levels[i+1]
		}
	}
	return self
}
