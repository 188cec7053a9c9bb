package core

import (
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

// Range word layout: one atomic word per thread packs the first frame of
// the thread's not-yet-retired registrations and how many consecutive
// frames follow it, so a reader never sees a range that mixes two segments.
const (
	rangeCountBits = 24
	rangeCountMax  = 1<<rangeCountBits - 1
	rangeFrameMax  = 1<<(64-rangeCountBits) - 1
)

func packRange(first, n int64) uint64 {
	return uint64(first)<<rangeCountBits | uint64(n)
}

func unpackRange(w uint64) (first, n int64) {
	return int64(w >> rangeCountBits), int64(w & rangeCountMax)
}

// rangeCell is one thread's cache-line-padded range word. Only the owning
// thread stores it; advancers and gauges load it from any goroutine.
type rangeCell struct {
	w atomic.Uint64
	_ [56]byte
}

// frameClockStats counts the clock's slow and contended events. They are
// written on the advance path only — never on the per-call fast path — and
// surface as wincm_frameclock_*_total telemetry gauges.
type frameClockStats struct {
	casRetries   atomic.Int64 // failed CASes on the state word
	contractions atomic.Int64 // drain-driven frame advances (dynamic mode)
	expansions   atomic.Int64 // time-driven frame advances (dynamic mode)
}

// frameClock is the shared frame counter of a window manager.
//
// Static mode: the current frame advances purely with time, every frame
// duration (Θ(ln MN) transaction-lengths, auto-calibrated).
//
// Dynamic mode: each thread publishes the consecutive frames its scheduled
// transactions still occupy. The current frame advances as soon as no range
// covers it — contraction — skipping over frames nobody occupies, and is
// forced forward after expandFactor durations — bounded expansion.
//
// The clock is lock-free. The current frame and an "advancing" bit share
// one packed state word (cur<<1 | busy): readers take one atomic load, and
// an advance is a CAS that sets the bit, a short private computation, and
// a single store that publishes the new frame and releases the bit at
// once. At most one caller ever performs an advance; every other caller
// reads the freshly published frame instead of queuing. The schedule is
// stored once, as one single-writer range word per thread: opening a
// segment and retiring a frame are one store each, and how many
// transactions a frame still waits for is an O(M) scan of those words,
// paid only by the advancer, by a thread whose retired frame is the current
// one, and by gauges. Frame starts (started, ns) ride outside the packed
// word — 64-bit timestamps do not fit next to the frame index — which is
// safe because started is written only while the busy bit is held and read
// only for deadline checks, where a stale value at worst sends a caller
// into an advance attempt that loses its CAS and returns.
type frameClock struct {
	dynamic bool
	epoch   time.Time
	nowFn   func() int64 // test hook; nil → monotonic ns since epoch
	// onAdvance, when set, is called with the new frame index after every
	// published advance, outside the advancing bit (never under a lock).
	// The flight recorder's frame track is its consumer. Installed
	// before the clock runs (plain field), must be fast and non-blocking,
	// and may be invoked concurrently and out of frame order when two
	// advances race — consumers must tolerate both.
	onAdvance func(frame int64)

	dur     atomic.Int64  // frame duration, ns
	state   atomic.Uint64 // packed: current frame <<1 | advancing bit
	started atomic.Int64  // ns when the current frame started (advancer-owned)
	advReq  atomic.Int64  // parked drain request: drained frame + 1, 0 for none

	maxReg atomic.Int64 // highest frame with a registration ever
	ranges []rangeCell  // per-thread registered frames (dynamic mode)

	stats frameClockStats
}

// newFrameClock builds a clock for m threads; static clocks track no
// registrations and allocate no range words.
func newFrameClock(dynamic bool, dur time.Duration, m int) *frameClock {
	c := &frameClock{
		dynamic: dynamic,
		epoch:   time.Now(),
	}
	if dynamic {
		c.ranges = make([]rangeCell, m)
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

// cur reads the current frame from the packed state word.
func (c *frameClock) cur() int64 { return int64(c.state.Load() >> 1) }

// Current returns the current frame index, advancing the clock first if
// the current frame's time allowance has run out. Readers never queue: if
// another caller is mid-advance, Current returns the latest published
// frame immediately.
func (c *frameClock) Current() int64 {
	if c.now() >= c.started.Load()+c.effDur() {
		c.advance()
	}
	return c.cur()
}

// contract asks for the contraction of frame f, which the caller saw with
// no range left on it. The request must not be lost: it is parked in advReq
// before the advancing bit is tried, and whoever holds the bit re-checks
// advReq after releasing it, so one of the two serves it (the Dekker-style
// store/load pairs are seq-cst, which rules out both sides missing each
// other). It names its frame because two threads retiring a frame's last
// two registrations can both see it empty: whichever request is served
// second finds the clock past f and is ignored. For the same reason a
// request only ever raises advReq — a late one for a frame already left
// must not overwrite the request for the frame that followed it.
func (c *frameClock) contract(f int64) {
	raise(&c.advReq, f+1)
	c.advance()
}

// raise lifts a to at least v.
func raise(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// advance moves the clock forward; it is the only mutator of the state
// word. It is best-effort for the caller — if the advancing bit is already
// held, the holder is doing the work and the caller just reads the result —
// but serves every drain request parked before its last look at advReq.
func (c *frameClock) advance() {
	for {
		s := c.state.Load()
		if s&1 != 0 {
			return // an advance is in flight; any drain request is parked
		}
		if !c.state.CompareAndSwap(s, s|1) {
			c.stats.casRetries.Add(1)
			continue
		}
		cur := int64(s >> 1)
		drained := c.advReq.Swap(0)-1 == cur
		next := c.advanceHeld(cur, drained)
		c.state.Store(uint64(next) << 1) // publish + release in one store
		if h := c.onAdvance; h != nil && next != cur {
			h(next)
		}
		if c.advReq.Load() == 0 {
			return
		}
	}
}

// advanceHeld computes the next frame while the advancing bit is held:
// first the time-driven catch-up (one frame per allowance, computed in one
// step so an idle clock costs O(1)), then — dynamic mode — the drain-driven
// contraction step and the skip over registered-empty frames, which never
// passes the last registered frame (there is nothing to run up ahead, so
// the clock idles there instead of spinning forward).
func (c *frameClock) advanceHeld(cur int64, drained bool) int64 {
	d := c.effDur()
	start := c.started.Load()
	t := c.now()
	next := cur
	moved := false
	if el := t - start; el >= d {
		steps := el / d
		next += steps
		start += steps * d
		moved = true
		if c.dynamic {
			c.stats.expansions.Add(steps)
		}
	}
	if c.dynamic {
		if !moved && drained && c.pendingAt(next) == 0 {
			next++ // contraction: the drained frame ends now
			start = t
			moved = true
			c.stats.contractions.Add(1)
		}
		if moved {
			if sk := c.skipEmpty(next); sk != next {
				next = sk
				start = t
			}
		}
	}
	if moved {
		c.started.Store(start)
	}
	return next
}

// skipEmpty returns the first frame in [from, maxReg] some range covers,
// or maxReg if none (never beyond the last registered frame).
func (c *frameClock) skipEmpty(from int64) int64 {
	to := c.maxReg.Load()
	if to <= from {
		return from
	}
	for i := range c.ranges {
		if first, n := unpackRange(c.ranges[i].w.Load()); n > 0 && first < to && first+n > from {
			to = max(first, from)
		}
	}
	return to
}

// pendingAt counts the ranges that cover frame f.
func (c *frameClock) pendingAt(f int64) int64 {
	var p int64
	for i := range c.ranges {
		if first, n := unpackRange(c.ranges[i].w.Load()); f >= first && f < first+n {
			p++
		}
	}
	return p
}

// open publishes [first, first+n) as thread i's range, one store; the
// caller has dropped what the previous segment left (dynamic bookkeeping; a
// no-op in static mode). A range the packed word cannot hold is left
// unpublished: that thread's frames then end by time alone, which bounded
// expansion guarantees anyway.
func (c *frameClock) open(i int, first, n int64) {
	if !c.dynamic || first < 0 || n > rangeCountMax || first+n > rangeFrameMax {
		return
	}
	// Range before skip bound: an advancer between the two idles at the old
	// bound; the other order would let it skip past frames about to appear.
	c.ranges[i].w.Store(packRange(first, n))
	raise(&c.maxReg, first+n-1)
}

// retire removes the first frame of thread i's range — its transaction
// committed — and requests the contraction itself if that emptied the
// current frame. The store comes before the scan, both seq-cst, so of two
// threads retiring a frame's last two registrations at once at least one
// sees it empty.
func (c *frameClock) retire(i int) {
	if !c.dynamic {
		return
	}
	cell := &c.ranges[i].w
	f, n := unpackRange(cell.Load())
	if n == 0 {
		return
	}
	cell.Store(packRange(f+1, n-1))
	if f == c.cur() && c.pendingAt(f) == 0 {
		c.contract(f)
	}
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
	cell := &c.ranges[i].w
	first, n := unpackRange(cell.Load())
	if n == 0 {
		return
	}
	cell.Store(packRange(first+n, 0))
	for f := c.cur(); f >= first && f < first+n && c.pendingAt(f) == 0; {
		c.contract(f)
		g := c.cur()
		if g == f {
			return // an advance in flight holds the request, or f was taken again
		}
		f = g
	}
}

// occupancy reports the dynamic clock's live scheduling state: how many
// not-yet-committed transactions are registered in the current frame and
// across all frames. Static clocks track no registrations and report
// zeros. Two passes over the range words; safe from any goroutine —
// telemetry gauges sample it mid-run without stalling committers.
func (c *frameClock) occupancy() (curPending, totalPending int64) {
	for i := range c.ranges {
		_, n := unpackRange(c.ranges[i].w.Load())
		totalPending += n
	}
	return c.pendingAt(c.cur()), totalPending
}
