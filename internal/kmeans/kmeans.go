// Package kmeans implements a STAMP-style kmeans clustering benchmark over
// the STM — the first of the STAMP benchmarks the paper's conclusion names
// as future work.
//
// Structure follows STAMP kmeans: a shared set of K cluster accumulators;
// each transaction assigns one point to its nearest center (reading all K
// center positions) and folds the point into that center's accumulator
// (one write). Contention concentrates on K hot variables — a different
// conflict shape from the pointer-chasing set benchmarks: small read sets,
// a single contended write, no traversals to re-execute.
package kmeans

import (
	"fmt"
	"math"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// Dim is the point dimensionality (STAMP uses low-dimensional inputs).
const Dim = 4

// Point is one input sample.
type Point [Dim]float64

// center is one cluster's transactional state: its current position and
// the accumulator of assigned points.
type center struct {
	Pos   Point
	Sum   Point
	Count int64
}

// Config parameterizes the benchmark.
type Config struct {
	// K is the number of clusters — fewer clusters means hotter spots.
	K int
	// Points is the input set size.
	Points int
	// Spread scatters the synthetic input around K true centers.
	Spread float64
	// Seed drives input generation.
	Seed uint64
}

// KMeans is the shared clustering state.
type KMeans struct {
	cfg     Config
	points  []Point
	centers []*stm.TVar[center]
}

// New generates a synthetic input of cfg.Points samples around cfg.K true
// centers and initializes the cluster accumulators at random positions.
func New(cfg Config) *KMeans {
	if cfg.K <= 0 {
		cfg.K = 8
	}
	if cfg.Points <= 0 {
		cfg.Points = 4096
	}
	if cfg.Spread <= 0 {
		cfg.Spread = 0.1
	}
	r := rng.New(cfg.Seed)
	truth := make([]Point, cfg.K)
	for i := range truth {
		for d := 0; d < Dim; d++ {
			truth[i][d] = r.Float64()
		}
	}
	k := &KMeans{cfg: cfg}
	k.points = make([]Point, cfg.Points)
	for i := range k.points {
		t := truth[r.Intn(cfg.K)]
		for d := 0; d < Dim; d++ {
			k.points[i][d] = t[d] + (r.Float64()-0.5)*cfg.Spread
		}
	}
	k.centers = make([]*stm.TVar[center], cfg.K)
	for i := range k.centers {
		k.centers[i] = stm.NewTVar(center{Pos: truth[(i+1)%cfg.K]})
	}
	return k
}

// Config returns the benchmark configuration.
func (k *KMeans) Config() Config { return k.cfg }

// dist2 is the squared Euclidean distance.
func dist2(a, b Point) float64 {
	var s float64
	for d := 0; d < Dim; d++ {
		diff := a[d] - b[d]
		s += diff * diff
	}
	return s
}

// Assign runs one assignment transaction on th: read every center
// position, pick the nearest to points[idx], and fold the point into that
// center's accumulator. It returns the chosen cluster and the commit
// statistics.
func (k *KMeans) Assign(th *stm.Thread, idx int) (int, stm.TxInfo) {
	p := k.points[idx%len(k.points)]
	best := 0
	info := th.Atomic(func(tx *stm.Tx) {
		bestD := math.Inf(1)
		best = 0
		for i, cv := range k.centers {
			c := stm.Read(tx, cv)
			if d := dist2(p, c.Pos); d < bestD {
				bestD, best = d, i
			}
		}
		cv := k.centers[best]
		c := stm.Read(tx, cv)
		for d := 0; d < Dim; d++ {
			c.Sum[d] += p[d]
		}
		c.Count++
		stm.Write(tx, cv, c)
	})
	return best, info
}

// Recenter runs the update phase transactionally: every center moves to
// the mean of its accumulated points and the accumulators reset. Empty
// clusters keep their position.
func (k *KMeans) Recenter(th *stm.Thread) {
	th.Atomic(func(tx *stm.Tx) {
		for _, cv := range k.centers {
			c := stm.Read(tx, cv)
			if c.Count > 0 {
				for d := 0; d < Dim; d++ {
					c.Pos[d] = c.Sum[d] / float64(c.Count)
				}
			}
			c.Sum = Point{}
			c.Count = 0
			stm.Write(tx, cv, c)
		}
	})
}

// Assigned returns the total number of points folded into accumulators
// since the last Recenter (quiescent states only).
func (k *KMeans) Assigned() int64 {
	var total int64
	for _, cv := range k.centers {
		total += cv.Peek().Count
	}
	return total
}

// Cost returns the mean squared distance of every input point to its
// nearest center position (quiescent states only) — the quantity Lloyd
// iterations minimize.
func (k *KMeans) Cost() float64 {
	positions := make([]Point, len(k.centers))
	for i, cv := range k.centers {
		positions[i] = cv.Peek().Pos
	}
	var total float64
	for _, p := range k.points {
		best := math.Inf(1)
		for _, pos := range positions {
			if d := dist2(p, pos); d < best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(k.points))
}

// Verify checks accumulator sanity in a quiescent state: non-negative
// counts, finite sums, and per-center mean positions inside the input's
// bounding box (inflated by the spread).
func (k *KMeans) Verify() error {
	for i, cv := range k.centers {
		c := cv.Peek()
		if c.Count < 0 {
			return fmt.Errorf("kmeans: center %d has negative count %d", i, c.Count)
		}
		for d := 0; d < Dim; d++ {
			if math.IsNaN(c.Sum[d]) || math.IsInf(c.Sum[d], 0) {
				return fmt.Errorf("kmeans: center %d has invalid sum %v", i, c.Sum)
			}
			if c.Count > 0 {
				mean := c.Sum[d] / float64(c.Count)
				lo, hi := -1.0, 2.0
				if mean < lo || mean > hi {
					return fmt.Errorf("kmeans: center %d mean %v outside input range", i, mean)
				}
			}
		}
	}
	return nil
}
