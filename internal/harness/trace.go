package harness

import (
	"time"

	"wincm/internal/telemetry"
	"wincm/internal/txtrace"
)

// TraceConfig arms the transaction flight recorder (wincm/internal/txtrace)
// for a run: the recorder is the runtime's probe, frame advances
// land on its auxiliary track, and a background poller drains the rings for
// the run's Collector.
type TraceConfig struct {
	// Sample records one logical transaction in Sample (<= 1 records
	// every transaction). The paper-style debugging runs use 1; overhead
	// measurements use 64.
	Sample int
	// Hub, when non-nil, gets the run's collector installed as its trace
	// source, so /trace/snapshot and /trace/dump serve this run live.
	Hub *telemetry.Hub
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
