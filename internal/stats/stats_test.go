package stats_test

import (
	"math"
	"testing"
	"testing/quick"

	"wincm/internal/stats"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if got := stats.Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := stats.Mean([]float64{1, 2, 3, 4}); !almost(got, 2.5) {
		t.Errorf("Mean = %v", got)
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 2x + 3
	a, b := stats.LinearFit(xs, ys)
	if !almost(a, 2) || !almost(b, 3) {
		t.Errorf("fit = %v, %v", a, b)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	a, b := stats.LinearFit([]float64{2, 2}, []float64{1, 3})
	if a != 0 || !almost(b, 2) {
		t.Errorf("vertical fit = %v, %v", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Error("LinearFit with 1 point did not panic")
		}
	}()
	stats.LinearFit([]float64{1}, []float64{1})
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := stats.Pearson(xs, []float64{2, 4, 6, 8}); !almost(got, 1) {
		t.Errorf("perfect correlation = %v", got)
	}
	if got := stats.Pearson(xs, []float64{8, 6, 4, 2}); !almost(got, -1) {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := stats.Pearson(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("constant series correlation = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Pearson length mismatch did not panic")
		}
	}()
	stats.Pearson(xs, []float64{1})
}

// TestQuickMeanBounds: the mean always lies within [min, max].
func TestQuickMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e300 {
				return true // avoid summation overflow, not a stats property
			}
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		m := stats.Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
