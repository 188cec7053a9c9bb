package harness

import (
	"time"

	"wincm/internal/telemetry"
	"wincm/internal/txtrace"
)

// TraceConfig arms the transaction flight recorder (wincm/internal/txtrace)
// for a run: the recorder joins the runtime's probe chain last (so it
// records the schedule that actually executes, chaos perturbations
// included), frame advances land on its auxiliary track, and a background
// poller drains the rings for the run's Collector.
type TraceConfig struct {
	// Sample records one logical transaction in Sample (<= 1 records
	// every transaction). The paper-style debugging runs use 1; overhead
	// measurements use 64.
	Sample int
	// RingCap is the per-thread ring capacity in events
	// (0 = txtrace.DefaultRingCap).
	RingCap int
	// Keep bounds the collector's retained window in events
	// (0 = txtrace.DefaultKeep).
	Keep int
	// PollEvery is the ring drain cadence (0 = 25ms). Rings that fill
	// between polls drop events (counted, never blocking).
	PollEvery time.Duration
	// Hub, when non-nil, gets the run's collector installed as its trace
	// source, so /trace/snapshot and /trace/dump serve this run live.
	Hub *telemetry.Hub
}

// defaultTracePoll is the collector poll cadence when TraceConfig.PollEvery
// is zero.
const defaultTracePoll = 25 * time.Millisecond

// startTracePoller drains the collector at the configured cadence until
// the returned stop function is called (which performs a final drain).
func startTracePoller(col *txtrace.Collector, every time.Duration) (stop func()) {
	if every <= 0 {
		every = defaultTracePoll
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
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
