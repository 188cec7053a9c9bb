package stm

import (
	"sync"
	"sync/atomic"
	"time"
)

// Watchdog monitors a runtime for lack of global progress. Every interval
// it samples the runtime's commit counter; if no transaction committed
// since the previous tick while transactions are in flight, the watchdog
// "trips": it grants the serialized-fallback token to the oldest in-flight
// transaction (if the token is free), forcing the system to drain through
// the serialized path. This rescues schedules the budgets alone cannot —
// e.g. a mutual-wait livelock among transactions that never abort and so
// never reach the budget check.
//
// The watchdog also proves quiescence: after the workload's goroutines
// have joined, Quiescent reports whether every thread has retired its
// in-flight transaction and the fallback token is free — i.e. no
// transaction is permanently stuck.
//
// The watchdog is one timer, re-armed by each tick, not a goroutine: a
// stopped watchdog leaves nothing running and nothing to wait for.
type Watchdog struct {
	rt       *Runtime
	interval time.Duration
	trips    atomic.Int64
	// mu serializes ticks with Stop and guards the fields below.
	mu          sync.Mutex
	timer       *time.Timer
	stopped     bool
	lastCommits int64
}

// StartWatchdog begins monitoring the runtime every interval, which must be
// positive, and returns the watchdog. Call Stop before reading final
// statistics.
func (rt *Runtime) StartWatchdog(interval time.Duration) *Watchdog {
	w := &Watchdog{rt: rt, interval: interval}
	w.mu.Lock() // the first tick may fire before timer is set
	w.timer = time.AfterFunc(interval, w.tick)
	w.mu.Unlock()
	return w
}

// tick performs one progress check and re-arms the timer, unless Stop got
// there first.
func (w *Watchdog) tick() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return
	}
	defer w.timer.Reset(w.interval)
	rt := w.rt
	// Keep an untimed runtime's birth tick moving while nothing aborts.
	rt.advanceTick(now())
	rt.clearStaleFallback()
	commits := rt.Commits()
	progressed := commits != w.lastCommits
	w.lastCommits = commits
	if progressed {
		return
	}
	oldest := w.oldestInflight()
	if oldest == nil {
		return // idle, not stuck
	}
	w.trips.Add(1)
	// Grant the token to the oldest starver if it is free; if another
	// transaction already holds it, it is the designated survivor and the
	// system is draining through it — nothing more to do.
	rt.fallback.CompareAndSwap(nil, oldest)
}

// oldestInflight returns the in-flight descriptor with the earliest birth,
// or nil when the runtime is idle.
func (w *Watchdog) oldestInflight() *Desc {
	var oldest *Desc
	for _, t := range w.rt.threads {
		if !t.inFlight() {
			continue
		}
		d := &t.desc
		if oldest == nil || d.Birth.Load() < oldest.Birth.Load() ||
			(d.Birth.Load() == oldest.Birth.Load() && d.ID.Load() < oldest.ID.Load()) {
			oldest = d
		}
	}
	return oldest
}

// Stop ends monitoring: once it returns no tick runs, including one that
// was already in progress. Stopping twice is harmless.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	w.stopped = true
	w.timer.Stop()
	w.mu.Unlock()
}

// Trips returns the number of no-progress intervals observed.
func (w *Watchdog) Trips() int64 { return w.trips.Load() }

// Quiescent reports whether the runtime has fully drained: no thread has a
// transaction in flight and the fallback token is free. Call it after
// joining all workers to prove no transaction is permanently stuck.
func (w *Watchdog) Quiescent() bool {
	rt := w.rt
	for _, t := range rt.threads {
		if t.inFlight() {
			return false
		}
	}
	rt.clearStaleFallback()
	return rt.fallback.Load() == nil
}
