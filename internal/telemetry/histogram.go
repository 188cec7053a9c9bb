package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every histogram: bucket 0 holds
// observations ≤ 0, bucket i (1 ≤ i < NumBuckets−1) holds values in
// [2^(i−1), 2^i − 1], and the last bucket holds everything larger. With 40
// buckets a nanosecond-valued histogram spans 1ns to ≈9 minutes before
// saturating — wider than any quantity the STM produces.
const NumBuckets = 40

// histShard is one writer's private histogram state. sum and max ride in
// front of the bucket array; the whole struct is several cache lines, so
// two shards never share a line. The observation count is not stored — it
// is the sum of the buckets, computed at snapshot time.
type histShard struct {
	sum    atomic.Int64
	max    atomic.Int64
	bucket [NumBuckets]atomic.Int64
}

// Histogram is a sharded, log₂-bucketed histogram of int64 observations
// (durations in nanoseconds, attempt counts). One Observe is two
// load+store pairs on the writer's own shard (its thread ID, masked), plus
// a third when the value is a new maximum, and merging happens at read
// time. Shards are single-writer: two goroutines observing into one shard
// concurrently can lose observations.
type Histogram struct {
	name  string
	help  string
	mask  uint32
	shard []histShard
}

// newHistogram builds a histogram with at least shards shards.
func newHistogram(name, help string, shards int) *Histogram {
	n := ceilPow2(shards)
	return &Histogram{name: name, help: help, mask: uint32(n - 1), shard: make([]histShard, n)}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// bucketFor maps an observation to its bucket index.
func bucketFor(v int64) int {
	if v <= 0 {
		return 0
	}
	b := bits.Len64(uint64(v)) // v in [2^(b-1), 2^b - 1]
	if b > NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket i;
// math.MaxInt64 for the overflow bucket.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Observe records one value into the writer's shard. Concurrent writers
// must use distinct shard indices.
func (h *Histogram) Observe(shard int, v int64) {
	s := &h.shard[uint32(shard)&h.mask]
	s.sum.Store(s.sum.Load() + v)
	if v > s.max.Load() {
		s.max.Store(v)
	}
	b := &s.bucket[bucketFor(v)]
	b.Store(b.Load() + 1)
}

// HistogramSnapshot is the merged state of a histogram at one instant.
type HistogramSnapshot struct {
	// Count is the number of observations; Sum their total.
	Count, Sum int64
	// Max is the largest observation, exact (each shard keeps its own
	// single-writer maximum); 0 with no positive observation.
	Max int64
	// Buckets are per-bucket (non-cumulative) observation counts.
	Buckets [NumBuckets]int64
}

// Mean returns the average observation, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) from the
// bucket boundaries — the smallest bucket upper bound with at least q of
// the mass at or below it.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if cum >= target {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Snapshot merges all shards. Each shard's fields are read atomically;
// concurrent writers may land between field reads, so Count/Sum/Buckets
// are individually exact but need not agree to one observation — the
// standard scrape guarantee. Count is the bucket total. A shard's buckets
// are read before its sum and max, which Observe writes first, so Sum and
// Max cover at least every observation Count counts: a count derived as
// Sum − Count (TxStats' aborts) never reads negative mid-run.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	for i := range h.shard {
		s := &h.shard[i]
		for b := range s.bucket {
			out.Buckets[b] += s.bucket[b].Load()
		}
		out.Sum += s.sum.Load()
		if m := s.max.Load(); m > out.Max {
			out.Max = m
		}
	}
	for _, n := range out.Buckets {
		out.Count += n
	}
	return out
}

// writePrometheus emits the histogram as cumulative le-labelled buckets.
// Empty trailing buckets are elided (the +Inf bucket always appears), so
// the common all-small-values case stays compact.
func (h *Histogram) writePrometheus(w io.Writer) error {
	snap := h.Snapshot()
	if h.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", h.name, h.help); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.name); err != nil {
		return err
	}
	last := 0
	for i, n := range snap.Buckets {
		if n > 0 {
			last = i
		}
	}
	var cum int64
	for i := 0; i <= last; i++ {
		cum += snap.Buckets[i]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", h.name, BucketUpper(i), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, snap.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %d\n", h.name, snap.Sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.name, snap.Count)
	return err
}
