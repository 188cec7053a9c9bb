// Package stats provides the small set of descriptive statistics the
// experiment drivers need: means, and the simple linear fits used by the
// theory-bound experiments.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// LinearFit returns slope a and intercept b of the least-squares line
// y = a·x + b through the points (xs[i], ys[i]). It is used to check that
// measured simulator makespans grow linearly in the theorem bound.
// Both slices must have the same length ≥ 2.
func LinearFit(xs, ys []float64) (a, b float64) {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: LinearFit needs two equal-length series of ≥ 2 points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0, my
	}
	a = sxy / sxx
	return a, my - a*mx
}

// Pearson returns the Pearson correlation coefficient of xs and ys.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic("stats: Pearson needs two equal-length series of ≥ 2 points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, syy, sxy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}
