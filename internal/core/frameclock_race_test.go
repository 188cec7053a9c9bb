package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFrameClockConcurrentAccess hammers one dynamic clock from many
// goroutines mixing opens, retires and reads; the clock must never go
// backwards and must end with empty pending state.
func TestFrameClockConcurrentAccess(t *testing.T) {
	const workers, perWorker = 8, 300
	c := newFrameClock(true, 200*time.Microsecond, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := int64(0)
			for i := 0; i < perWorker; i++ {
				f := c.Current()
				if f < last {
					t.Errorf("clock went backwards: %d after %d", f, last)
					return
				}
				last = f
				c.open(w, f+int64(i%3), 1)
				c.retire(w)
			}
		}(w)
	}
	wg.Wait()
	if _, total := c.occupancy(); total != 0 {
		t.Errorf("pending = %d after balanced open/retire", total)
	}
}

// TestFrameClockContractionExpansionRace is the ISSUE 4 stress cell: 32
// goroutines drive contraction (open+drain at the current frame), expansion
// (a tiny frame duration forces time-driven advances), multi-frame segments
// retired in order, and drops (adaptive re-randomization) concurrently. Run
// under -race. The clock must stay monotonic and drain to zero pending.
func TestFrameClockContractionExpansionRace(t *testing.T) {
	const workers, perWorker = 32, 200
	c := newFrameClock(true, 50*time.Microsecond, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := int64(0)
			for i := 0; i < perWorker; i++ {
				f := c.Current()
				if f < last {
					t.Errorf("clock went backwards: %d after %d", f, last)
					return
				}
				last = f
				switch i % 4 {
				case 0: // drain the current frame: contraction
					c.open(w, f, 1)
					c.retire(w)
				case 1: // near-future frame
					c.open(w, f+int64(w%5), 1)
					c.retire(w)
				case 2: // a segment retired front to back
					c.open(w, f, 3)
					c.retire(w)
					c.retire(w)
					c.retire(w)
				default: // adaptive re-randomization: open, then move away
					c.open(w, f, 4)
					c.retire(w)
					c.drop(w)
				}
			}
		}(w)
	}
	wg.Wait()
	if _, total := c.occupancy(); total != 0 {
		t.Errorf("pending = %d after balanced open/retire", total)
	}
}

// TestFrameClockConcurrentLastRetirers: two threads hold the current
// frame's last two registrations and retire them at the same instant. The
// retires serialize on the clock's lock, so the second finds the frame
// empty and contracts it, and a contraction only ever steps the frame its
// caller emptied: every drained frame is contracted exactly once, although
// the frame contracted to is empty as well (nothing else is registered, and
// time is frozen).
func TestFrameClockConcurrentLastRetirers(t *testing.T) {
	const rounds = 2000
	c := newFrameClock(true, time.Hour, 2)
	var arrived atomic.Int64
	var wg sync.WaitGroup
	for f := int64(0); f < rounds; f++ {
		c.open(0, f, 1)
		c.open(1, f, 1)
		arrived.Store(0)
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for arrived.Add(1); arrived.Load() < 2; {
					runtime.Gosched()
				}
				c.retire(w)
			}(w)
		}
		wg.Wait()
		if got := c.cur(); got != f+1 {
			t.Fatalf("round %d: cur = %d, want %d", f, got, f+1)
		}
		if got := c.contractions.Load(); got != f+1 {
			t.Fatalf("round %d: %d contractions counted, want %d", f, got, f+1)
		}
	}
}

// TestFrameClockReaderSkipsHeldLock pins down the TryLock rule: a reader
// past a frame deadline while the clock's lock is held returns the
// published frame without waiting for the lock; after release the next
// reader catches up, and the frame hook fires once for that advance.
func TestFrameClockReaderSkipsHeldLock(t *testing.T) {
	for _, dynamic := range []bool{false, true} {
		var fake int64
		c := newFrameClock(dynamic, time.Millisecond, 1)
		c.nowFn = func() int64 { return fake }
		var fired []int64
		c.onAdvance = func(f int64) { fired = append(fired, f) }

		c.mu.Lock()
		fake = 3 * c.effDur() // three frames' allowance: the deadline is long past
		read := make(chan int64)
		go func() { read <- c.Current() }()
		select {
		case got := <-read:
			if got != 0 {
				t.Errorf("dynamic=%v: Current() under the held lock = %d, want the published 0", dynamic, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("dynamic=%v: Current() blocked on the held lock", dynamic)
		}
		c.mu.Unlock()
		if got := c.Current(); got != 3 {
			t.Errorf("dynamic=%v: Current() after release = %d, want 3", dynamic, got)
		}
		if len(fired) != 1 || fired[0] != 3 {
			t.Errorf("dynamic=%v: frame hook calls = %v, want [3]", dynamic, fired)
		}
	}
}

// TestFrameClockMonotonicUnderContraction: commit-driven advances and
// time-driven advances interleave without the counter regressing.
func TestFrameClockMonotonicUnderContraction(t *testing.T) {
	c := newFrameClock(true, time.Millisecond, 8)
	last := int64(0)
	for i := 0; i < 200; i++ {
		f := c.Current()
		if f < last {
			t.Fatalf("regressed: %d after %d", f, last)
		}
		last = f
		c.open(0, f, 1)
		c.retire(0) // drain current frame → contraction
	}
}

// TestFrameClockStaticAdvanceSingleWinner: in static mode the deadline
// path is the TryLock rule too — concurrent readers past the deadline
// must all observe an advance without queuing or regressing.
func TestFrameClockStaticAdvanceSingleWinner(t *testing.T) {
	c := newFrameClock(false, 100*time.Microsecond, 1)
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for i := 0; i < 500; i++ {
				f := c.Current()
				if f < last {
					t.Errorf("static clock regressed: %d after %d", f, last)
					return
				}
				last = f
			}
		}()
	}
	wg.Wait()
	time.Sleep(300 * time.Microsecond)
	if c.Current() == 0 {
		t.Error("static clock never advanced past frame 0")
	}
}
