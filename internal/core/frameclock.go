package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// expandFactor bounds frame expansion in dynamic mode: a frame whose
// transactions have not all committed ends anyway after expandFactor frame
// durations ("the basic expansion of the frame can be obtained by adding an
// extra frame" — one extra frame, hence 2).
const expandFactor = 2

// minFrameDur keeps the calibrated frame duration from collapsing to zero
// before the first commit provides a τ̂ sample.
const minFrameDur = time.Microsecond

// frameRange is the run of consecutive frames [first, first+n) a thread's
// not-yet-retired registrations occupy.
type frameRange struct{ first, n int64 }

// frameClock is the shared frame counter of a window manager.
//
// Static mode: the current frame advances purely with time, every frame
// duration (Θ(ln MN) transaction-lengths, auto-calibrated).
//
// Dynamic mode: each thread registers the consecutive frames its scheduled
// transactions still occupy. The current frame advances as soon as no range
// covers it — contraction — skipping over frames nobody occupies, and is
// forced forward after expandFactor durations — bounded expansion.
//
// One mutex guards every change: advances, and in dynamic mode the ranges
// and the skip bound. Reads take no lock: the current frame, its start
// and the frame duration are atomics, so Current is a deadline check and a
// load. A reader that finds the frame's time up advances the clock only if
// the lock is free at once (TryLock). Otherwise it returns the published
// frame instead of queuing at the frame boundary: the holder is advancing
// the clock itself, or is about to release it after a short range update.
// Since the outside state (DESIGN.md §2) a conflict-free commit never
// reaches the clock; see DESIGN.md §9.
type frameClock struct {
	dynamic bool
	epoch   time.Time
	nowFn   func() int64 // test hook; nil → monotonic ns since epoch
	// onAdvance, when set, is called with the new frame index after every
	// published advance, after the lock is released. The flight recorder's
	// frame track is its consumer. Installed before the clock runs (plain
	// field), must be fast and non-blocking, and may be invoked
	// concurrently and out of frame order when two advances race —
	// consumers must tolerate both.
	onAdvance func(frame int64)

	dur     atomic.Int64 // frame duration, ns
	frame   atomic.Int64 // current frame; stored under mu
	started atomic.Int64 // ns when the current frame started; stored under mu

	_ [64]byte // keeps mu, written by in-window commits, off Current's lines

	mu     sync.Mutex
	maxReg int64        // highest frame with a registration ever
	ranges []frameRange // per-thread registered frames (dynamic mode)

	// Advances by cause (dynamic mode), counted under mu and read by the
	// wincm_frameclock_*_total gauges.
	contractions atomic.Int64 // drain-driven
	expansions   atomic.Int64 // time-driven
}

// newFrameClock builds a clock for m threads; static clocks track no
// registrations.
func newFrameClock(dynamic bool, dur time.Duration, m int) *frameClock {
	c := &frameClock{dynamic: dynamic, epoch: time.Now()}
	if dynamic {
		c.ranges = make([]frameRange, m)
	}
	c.setDur(dur)
	return c
}

// now returns ns since the clock epoch on the monotonic clock.
func (c *frameClock) now() int64 {
	if c.nowFn != nil {
		return c.nowFn()
	}
	return int64(time.Since(c.epoch))
}

// setDur updates the frame duration (called as τ̂ is recalibrated).
func (c *frameClock) setDur(d time.Duration) {
	if d < minFrameDur {
		d = minFrameDur
	}
	c.dur.Store(int64(d))
}

// effDur is the time allowance of one frame: the calibrated duration, or
// expandFactor times it in dynamic mode (bounded expansion).
func (c *frameClock) effDur() int64 {
	d := c.dur.Load()
	if c.dynamic {
		d *= expandFactor
	}
	return d
}

// cur reads the published current frame.
func (c *frameClock) cur() int64 { return c.frame.Load() }

// Current returns the current frame index, advancing the clock first if
// the current frame's time allowance has run out and the lock is free.
// Readers never queue: if the lock is held, its holder is either advancing
// the clock itself or updating one range, and Current returns the frame
// published so far; a deadline the holder did not see is caught up by the
// next reader.
func (c *frameClock) Current() int64 {
	if c.now() >= c.started.Load()+c.effDur() && c.mu.TryLock() {
		c.unlock(c.advance(0, 0))
	}
	return c.cur()
}

// unlock publishes next as the current frame, releases mu, then reports an
// advance to onAdvance.
func (c *frameClock) unlock(next int64) {
	cur := c.cur()
	if next != cur {
		c.frame.Store(next)
	}
	c.mu.Unlock()
	if h := c.onAdvance; h != nil && next != cur {
		h(next)
	}
}

// drained returns the frame the clock moves to under mu once the caller
// has emptied [lo, hi) of its registrations: it advances only if the
// current frame is one of them and nothing else is left on it.
func (c *frameClock) drained(lo, hi int64) int64 {
	if cur := c.cur(); cur < lo || cur >= hi || c.pendingAt(cur) != 0 {
		return cur
	}
	return c.advance(lo, hi)
}

// advance computes the next frame under mu: first the time-driven catch-up
// (one frame per allowance, computed in one step so an idle clock costs
// O(1)), then — dynamic mode — the skip over registered-empty frames and
// the contraction through every frame of [lo, hi) the clock reaches with
// nothing left on it, one step per frame, as retiring them one by one
// would. The skip never passes the last registered frame (there is nothing
// to run up ahead, so the clock idles there instead of spinning forward).
func (c *frameClock) advance(lo, hi int64) int64 {
	d := c.effDur()
	start, t := c.started.Load(), c.now()
	cur := c.cur()
	next := cur
	if el := t - start; el >= d {
		steps := el / d
		next += steps
		start += steps * d
		if c.dynamic {
			c.expansions.Add(steps)
			if sk := c.skipEmpty(next); sk != next {
				next, start = sk, t
			}
		}
	}
	for c.dynamic && lo <= next && next < hi && c.pendingAt(next) == 0 {
		next, start = c.skipEmpty(next+1), t // contraction: the drained frame ends now
		c.contractions.Add(1)
	}
	if next != cur {
		c.started.Store(start)
	}
	return next
}

// skipEmpty returns the first frame in [from, maxReg] some range covers,
// or maxReg if none (never beyond the last registered frame).
func (c *frameClock) skipEmpty(from int64) int64 {
	to := c.maxReg
	if to <= from {
		return from
	}
	for _, r := range c.ranges {
		if r.n > 0 && r.first < to && r.first+r.n > from {
			to = max(r.first, from)
		}
	}
	return to
}

// pendingAt counts the ranges that cover frame f.
func (c *frameClock) pendingAt(f int64) int64 {
	var p int64
	for _, r := range c.ranges {
		if f >= r.first && f < r.first+r.n {
			p++
		}
	}
	return p
}

// open registers [first, first+n) as thread i's range; the caller has
// dropped what the previous segment left (dynamic bookkeeping; a no-op in
// static mode).
func (c *frameClock) open(i int, first, n int64) {
	if !c.dynamic {
		return
	}
	c.mu.Lock()
	c.ranges[i] = frameRange{first, n}
	c.maxReg = max(c.maxReg, first+n-1)
	c.mu.Unlock()
}

// retire removes the first frame of thread i's range — its transaction
// committed — and contracts the clock if that emptied the current frame.
func (c *frameClock) retire(i int) {
	if !c.dynamic {
		return
	}
	c.mu.Lock()
	r := &c.ranges[i]
	f := r.first
	if r.n > 0 {
		r.first, r.n = f+1, r.n-1
	}
	c.unlock(c.drained(f, r.first))
}

// drop empties thread i's range without running its transactions (adaptive
// re-randomization moves schedules around; a clean segment leaves). The
// current frame may be one of those emptied, and so may the frame the clock
// then contracts to — with nothing pending ahead it idles at maxReg — so the
// clock is stepped once per frame the drop emptied under it, as retiring
// them one by one would.
func (c *frameClock) drop(i int) {
	if !c.dynamic {
		return
	}
	c.mu.Lock()
	r := &c.ranges[i]
	first, end := r.first, r.first+r.n
	*r = frameRange{end, 0}
	c.unlock(c.drained(first, end))
}

// occupancy reports the dynamic clock's live scheduling state: how many
// not-yet-committed transactions are registered in the current frame and
// across all frames. Static clocks track no registrations and report
// zeros. Safe from any goroutine — telemetry gauges sample it mid-run.
func (c *frameClock) occupancy() (curPending, totalPending int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.ranges {
		totalPending += r.n
	}
	return c.pendingAt(c.cur()), totalPending
}
