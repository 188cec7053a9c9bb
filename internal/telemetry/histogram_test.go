package telemetry_test

import (
	"math"
	"sync"
	"testing"

	"wincm/internal/telemetry"
)

// TestHistogramBucketBoundaries pins the log₂ bucket layout: bucket 0
// holds v ≤ 0, bucket i holds [2^(i−1), 2^i − 1], the last bucket holds
// the overflow.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21}, {1<<21 - 1, 21},
		{1 << 38, telemetry.NumBuckets - 1},       // [2^38, 2^39−1] is the last finite range
		{1 << 39, telemetry.NumBuckets - 1},       // first overflow value
		{math.MaxInt64, telemetry.NumBuckets - 1}, // deep overflow
	}
	for _, c := range cases {
		r := telemetry.NewRegistry()
		h := r.NewHistogram("h", "", 1)
		h.Observe(0, c.v)
		s := h.Snapshot()
		got := -1
		for i, n := range s.Buckets {
			if n == 1 {
				got = i
			}
		}
		if got != c.bucket {
			t.Errorf("Observe(%d) landed in bucket %d, want %d", c.v, got, c.bucket)
		}
		// The value must actually lie at or below its bucket's upper bound
		// and above the previous bound.
		if c.v > telemetry.BucketUpper(c.bucket) {
			t.Errorf("value %d above BucketUpper(%d) = %d", c.v, c.bucket, telemetry.BucketUpper(c.bucket))
		}
		if c.bucket > 0 && c.v <= telemetry.BucketUpper(c.bucket-1) {
			t.Errorf("value %d not above BucketUpper(%d) = %d", c.v, c.bucket-1, telemetry.BucketUpper(c.bucket-1))
		}
	}
}

func TestBucketUpper(t *testing.T) {
	if telemetry.BucketUpper(0) != 0 {
		t.Errorf("BucketUpper(0) = %d", telemetry.BucketUpper(0))
	}
	if telemetry.BucketUpper(1) != 1 {
		t.Errorf("BucketUpper(1) = %d", telemetry.BucketUpper(1))
	}
	if telemetry.BucketUpper(4) != 15 {
		t.Errorf("BucketUpper(4) = %d", telemetry.BucketUpper(4))
	}
	if telemetry.BucketUpper(telemetry.NumBuckets-1) != math.MaxInt64 {
		t.Error("overflow bucket bound is not MaxInt64")
	}
}

func TestHistogramMeanAndQuantile(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.NewHistogram("q", "", 1)
	var zero telemetry.HistogramSnapshot
	if zero.Mean() != 0 || zero.Quantile(0.5) != 0 {
		t.Error("empty snapshot produced nonzero stats")
	}
	// 90 small values in [1], 10 larger in [8,15].
	for i := 0; i < 90; i++ {
		h.Observe(0, 1)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0, 10)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 90+100 {
		t.Errorf("Count=%d Sum=%d", s.Count, s.Sum)
	}
	if got := s.Mean(); got != 1.9 {
		t.Errorf("Mean = %v", got)
	}
	// Max is the exact largest observation, not its bucket's bound (15).
	if s.Max != 10 || zero.Max != 0 {
		t.Errorf("Max = %d (empty %d), want 10 (0)", s.Max, zero.Max)
	}
	if got := s.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	// p99 must cover the tail: the 10 large values live in bucket [8,15].
	if got := s.Quantile(0.99); got != 15 {
		t.Errorf("p99 = %d, want 15", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("p0 = %d, want first occupied bound", got)
	}
	if got := s.Quantile(1); got != 15 {
		t.Errorf("p100 = %d, want 15", got)
	}
}

// TestHistogramConcurrentMerge: concurrent single-writer shards must
// merge to exact totals; run with -race.
func TestHistogramConcurrentMerge(t *testing.T) {
	r := telemetry.NewRegistry()
	h := r.NewHistogram("merge", "", 8) // one shard per writer (single-writer contract)
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(shard, int64(j%100+shard))
			}
		}(i)
	}
	wg.Wait()
	s := h.Snapshot()
	// Each shard keeps its own maximum; the merge takes the largest.
	if s.Max != 99+writers-1 {
		t.Errorf("Max = %d, want %d", s.Max, 99+writers-1)
	}
	if s.Count != writers*per {
		t.Errorf("Count = %d, want %d", s.Count, writers*per)
	}
	wantSum := int64(writers)*int64(per/100)*(99*100/2) + int64(per)*(writers*(writers-1)/2)
	if s.Sum != wantSum {
		t.Errorf("Sum = %d, want %d", s.Sum, wantSum)
	}
	var bucketTotal int64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d ≠ count %d", bucketTotal, s.Count)
	}
}
