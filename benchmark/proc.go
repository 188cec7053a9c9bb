package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// heapPeak tracks the largest live heap seen: the bytes the latest GC cycle
// found reachable. Unlike the in-use heap at an arbitrary instant it does not
// depend on where in its sawtooth the collector happens to be, so it repeats
// from run to run; runtime/metrics reads it without stopping the world.
type heapPeak struct {
	samples []metrics.Sample
	peak    uint64
}

func newHeapPeak() *heapPeak {
	return &heapPeak{samples: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapPeak) sample() {
	metrics.Read(h.samples)
	if v := h.samples[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// collect forces one GC cycle and samples its result, so that a run too
// short or too frugal to trigger a cycle of its own still reports the heap
// it ended with.
func (h *heapPeak) collect() {
	runtime.GC()
	h.sample()
}

// heapSampleEvery is finer than the GC cycles of the busiest workload.
const heapSampleEvery = 20 * time.Millisecond

// sleep waits for d, sampling the heap on the way.
func (h *heapPeak) sleep(d time.Duration) {
	end := time.Now().Add(d)
	for {
		h.sample()
		left := time.Until(end)
		if left <= 0 {
			return
		}
		if left > heapSampleEvery {
			left = heapSampleEvery
		}
		time.Sleep(left)
	}
}

// liveHeapMB collects and returns the live heap: with the discarded set-ups
// gone, what the system holds before any load.
func liveHeapMB() float64 {
	h := newHeapPeak()
	h.collect()
	return h.mb()
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// goStats is the Go runtime's cumulative allocation and GC account.
type goStats struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcPause: time.Duration(ms.PauseTotalNs)}
}
