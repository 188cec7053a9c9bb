package harness

import (
	"fmt"
	"time"

	"wincm/internal/txtrace"
)

// TraceFig runs TelemetryFig's cell — the first of Benchmarks under Manager
// at the largest of Threads — with the flight recorder recording one
// logical transaction in sample, and returns the run with the cell's label
// ("list under polka, M=8").
func TraceFig(o Options, sample int) (Result, string, error) {
	if sample < 1 {
		return Result{}, "", fmt.Errorf("harness: trace sample must be >= 1 (got %d)", sample)
	}
	o, err := o.resolve()
	if err != nil {
		return Result{}, "", err
	}
	benchmark, threads, label := o.watched()
	cfg := o.Config(o.Manager, threads, o.Seed)
	cfg.TraceSample = sample
	res, err := o.timed(benchmark, cfg)
	return res, label, err
}

// defaultTracePoll is the collector's ring drain cadence. Rings that fill
// between polls drop events (counted, never blocking).
const defaultTracePoll = 25 * time.Millisecond

// startTracePoller drains the collector every defaultTracePoll until the
// returned stop function is called (which performs a final drain).
func startTracePoller(col *txtrace.Collector) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(defaultTracePoll)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				col.Poll()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		col.Poll()
	}
}
