package telemetry

import (
	"sync"
	"time"
)

// Point is one interval sample: cumulative counter values and
// instantaneous gauge readings at time At since the sampler started.
// Rates (throughput, abort rate) are deltas between consecutive points.
type Point struct {
	// At is the sample time relative to Sampler start.
	At time.Duration
	// Counters holds cumulative counter values by name.
	Counters map[string]int64
	// Gauges holds gauge readings by name.
	Gauges map[string]float64
}

// Sampler periodically snapshots a registry's counters and gauges,
// producing the time series the -fig telemetry mode renders. Points are
// capped; once the cap is reached the sampler keeps counting dropped
// samples instead of growing without bound.
type Sampler struct {
	reg      *Registry
	interval time.Duration
	maxPts   int

	mu      sync.Mutex
	points  []Point
	dropped int64

	start time.Time
	stop  chan struct{}
	done  chan struct{}
}

// samplerCap bounds the retained time series (~2.7 hours at 100ms).
const samplerCap = 100_000

// StartSampler begins sampling reg every interval (minimum 1ms; a
// non-positive interval selects 100ms), keeping at most samplerCap points.
// Call Stop to end sampling; a final point is always taken at Stop so
// short runs never produce an empty series.
func StartSampler(reg *Registry, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	s := &Sampler{
		reg:      reg,
		interval: interval,
		maxPts:   samplerCap,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.run()
	return s
}

// run is the sampling loop.
func (s *Sampler) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			s.sample()
			return
		case <-ticker.C:
			s.sample()
		}
	}
}

// sample takes one point.
func (s *Sampler) sample() {
	snap := s.reg.Snapshot()
	p := Point{At: time.Since(s.start), Counters: snap.Counters, Gauges: snap.Gauges}
	s.mu.Lock()
	if len(s.points) < s.maxPts {
		s.points = append(s.points, p)
	} else {
		s.dropped++
	}
	s.mu.Unlock()
}

// Stop ends the sampling loop, taking one final point, and waits for it
// to exit. It is idempotent.
func (s *Sampler) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// Points returns a copy of the series so far.
func (s *Sampler) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.points...)
}

// Dropped returns how many samples the cap discarded.
func (s *Sampler) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
