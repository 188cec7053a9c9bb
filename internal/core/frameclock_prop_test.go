package core

import (
	"testing"
	"time"

	"wincm/internal/rng"
)

// jump force-advances the clock by n frames regardless of pending state
// (test helper: simulates a clock that ran far ahead of a schedule).
func (c *frameClock) jump(n int64) {
	c.mu.Lock()
	c.frame.Add(n)
	c.started.Store(c.now())
	c.mu.Unlock()
}

// refFrameClock is the clock's first design, kept verbatim (minus its
// mutex — the property test drives it single-threaded) as the executable
// specification the clock must agree with. It counts registrations frame by
// frame in a map; the clock under test stores one range per thread.
type refFrameClock struct {
	dynamic bool
	nowFn   func() int64
	dur     int64
	cur     int64
	started int64
	pending map[int64]int64
	maxReg  int64
}

func newRefFrameClock(dynamic bool, dur time.Duration, nowFn func() int64) *refFrameClock {
	c := &refFrameClock{dynamic: dynamic, nowFn: nowFn, pending: map[int64]int64{}}
	c.setDur(dur)
	return c
}

func (c *refFrameClock) setDur(d time.Duration) {
	if d < minFrameDur {
		d = minFrameDur
	}
	c.dur = int64(d)
}

func (c *refFrameClock) effDur() int64 {
	if c.dynamic {
		return c.dur * expandFactor
	}
	return c.dur
}

func (c *refFrameClock) Current() int64 {
	d := c.effDur()
	elapsed := c.nowFn() - c.started
	if elapsed < d {
		return c.cur
	}
	steps := elapsed / d
	c.cur += steps
	c.started += steps * d
	if c.dynamic {
		c.skipEmpty()
	}
	return c.cur
}

func (c *refFrameClock) skipEmpty() {
	cur := c.cur
	for cur < c.maxReg && c.pending[cur] == 0 {
		cur++
	}
	if cur != c.cur {
		c.cur = cur
		c.started = c.nowFn()
	}
}

func (c *refFrameClock) register(f int64) {
	if !c.dynamic {
		return
	}
	c.pending[f]++
	if f > c.maxReg {
		c.maxReg = f
	}
}

func (c *refFrameClock) dec(f int64) {
	if !c.dynamic {
		return
	}
	if n := c.pending[f]; n > 1 {
		c.pending[f] = n - 1
	} else {
		delete(c.pending, f)
	}
	if f == c.cur && c.pending[f] == 0 {
		c.cur++
		c.started = c.nowFn()
		c.skipEmpty()
	}
}

func (c *refFrameClock) occupancy() (curPending, totalPending int64) {
	for f, n := range c.pending {
		totalPending += n
		if f == c.cur {
			curPending = n
		}
	}
	return curPending, totalPending
}

// TestFrameClockMatchesReferenceModel drives the range clock and the
// per-frame reference model in lockstep over randomized schedules on a
// deterministic fake clock: four threads open, retire and drop ranges
// (the reference registers and decrements the same frames one by one)
// between time jumps and recalibrations, and both must show the same current
// frame and occupancy after every step. Ranges overlap, fall behind the
// clock, and are dropped across the current frame, including the drop that
// leaves nothing pending and the clock idling one past maxReg.
func TestFrameClockMatchesReferenceModel(t *testing.T) {
	const threads = 4
	droppedUnderClock, idledPastMaxReg := 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed)
		var fake int64
		now := func() int64 { return fake }

		c := newFrameClock(true, 100*time.Microsecond, threads)
		c.nowFn = now
		ref := newRefFrameClock(true, 100*time.Microsecond, now)

		var first, n [threads]int64 // the model of each thread's range
		check := func(step int, op string) {
			t.Helper()
			if g, w := c.cur(), ref.cur; g != w {
				t.Fatalf("seed %d step %d (%s): cur = %d, reference = %d", seed, step, op, g, w)
			}
			gc, gt := c.occupancy()
			wc, wt := ref.occupancy()
			if gc != wc || gt != wt {
				t.Fatalf("seed %d step %d (%s): occupancy = (%d,%d), reference = (%d,%d)",
					seed, step, op, gc, gt, wc, wt)
			}
		}
		drop := func(i int) {
			if n[i] > 0 && first[i] <= ref.cur && ref.cur < first[i]+n[i] {
				droppedUnderClock++
			}
			c.drop(i)
			for f := first[i]; f < first[i]+n[i]; f++ {
				ref.dec(f)
			}
			n[i] = 0
			if _, total := ref.occupancy(); total == 0 && ref.cur == ref.maxReg+1 {
				idledPastMaxReg++
			}
		}

		for step := 0; step < 3000; step++ {
			// Keep both models' time catch-up aligned before mutating: the
			// manager does the same (Committed reads Current() first), and
			// it pins down which of the two legitimate linearizations —
			// time-advance-then-contract vs contract — both take.
			if a, b := c.Current(), ref.Current(); a != b {
				t.Fatalf("seed %d step %d: Current() = %d, reference = %d", seed, step, a, b)
			}
			i := r.Intn(threads)
			switch op := r.Intn(10); {
			case op < 3: // a new segment at or ahead of the current frame
				drop(i)
				check(step, "drop before open")
				first[i], n[i] = ref.cur+int64(r.Intn(12)), int64(1+r.Intn(8))
				c.open(i, first[i], n[i])
				for f := first[i]; f < first[i]+n[i]; f++ {
					ref.register(f)
				}
				check(step, "open")
			case op < 7 && n[i] > 0: // commit: the range's first frame retires
				c.retire(i)
				ref.dec(first[i])
				first[i], n[i] = first[i]+1, n[i]-1
				check(step, "retire")
			case op < 8: // leave, or abandon the segment
				drop(i)
				check(step, "drop")
			case op < 9: // time passes (possibly several frames' worth)
				fake += int64(r.Intn(500)) * int64(time.Microsecond)
				check(step, "time")
			default: // τ̂ recalibration
				d := time.Duration(1+r.Intn(300)) * time.Microsecond
				c.setDur(d)
				ref.setDur(d)
				check(step, "setDur")
			}
			if r := c.ranges[i]; r.n != n[i] || (r.n > 0 && r.first != first[i]) {
				t.Fatalf("seed %d step %d: thread %d holds [%d,+%d), model [%d,+%d)", seed, step, i, r.first, r.n, first[i], n[i])
			}
		}
	}
	if droppedUnderClock == 0 || idledPastMaxReg == 0 {
		t.Errorf("schedules dropped %d ranges across the current frame and idled past maxReg %d times; want both exercised",
			droppedUnderClock, idledPastMaxReg)
	}
}

// TestFrameClockDropStepsPerEmptiedFrame pins the drop rule down
// deterministically: dropping the only range, which covers the current
// frame, walks the clock off its end (one past maxReg) as retiring its
// frames one by one would, and past another thread's frames no further
// than the first one still pending.
func TestFrameClockDropStepsPerEmptiedFrame(t *testing.T) {
	c := newFrameClock(true, time.Hour, 2)
	c.open(0, 0, 5)
	c.drop(0)
	if got := c.cur(); got != 5 {
		t.Fatalf("after dropping [0,5) alone: cur = %d, want 5", got)
	}
	c.open(0, 5, 5)
	c.open(1, 7, 1)
	c.drop(0)
	if got := c.cur(); got != 7 {
		t.Fatalf("after dropping [5,10) under a range on 7: cur = %d, want 7", got)
	}
	if cur, total := c.occupancy(); cur != 1 || total != 1 {
		t.Fatalf("occupancy = (%d,%d), want (1,1)", cur, total)
	}
}

// TestFrameClockHotPathAllocationFree: open, retire (including the
// contraction advance it triggers) and Current must not allocate.
func TestFrameClockHotPathAllocationFree(t *testing.T) {
	c := newFrameClock(true, time.Hour, 50)
	if n := testing.AllocsPerRun(1000, func() {
		c.open(0, c.Current(), 1)
		c.retire(0) // drains the current frame → contraction advance
	}); n != 0 {
		t.Errorf("open/retire/Current cycle allocates %v times per op", n)
	}
	s := newFrameClock(false, time.Microsecond, 50)
	if n := testing.AllocsPerRun(1000, func() {
		s.Current() // expired deadline → time-driven advance path
	}); n != 0 {
		t.Errorf("static Current allocates %v times per op", n)
	}
}
