package core

import (
	"testing"

	"wincm/internal/stm"
)

// TestScheduleNextWalksWindow: consecutive transactions of one thread get
// consecutive assigned frames within a segment, and a new segment starts
// after N transactions.
func TestScheduleNextWalksWindow(t *testing.T) {
	cfg := DefaultConfig(Online, 2)
	cfg.N = 4
	if a := alpha(float64(cfg.InitialC), cfg.M, cfg.N); a != 1 {
		t.Fatalf("α = %d, want 1 (so q = 0)", a)
	}
	m := NewManager(cfg)
	st := m.threads[0]
	d := &stm.Desc{ThreadID: 0}

	var frames []int64
	for seq := 0; seq < 8; seq++ {
		d.Seq = seq
		m.scheduleNext(st, d)
		frames = append(frames, st.assigned)
		if got := auxFrame(d.Aux.Load()); got != st.assigned {
			t.Fatalf("seq %d: Aux frame %d != assigned %d", seq, got, st.assigned)
		}
		if p2 := auxP2(d.Aux.Load()); p2 < 1 || p2 > 2 {
			t.Fatalf("seq %d: π2 = %d out of [1,2]", seq, p2)
		}
	}
	// Within each window of 4, frames are consecutive (α = 1 ⇒ q = 0).
	for w := 0; w < 2; w++ {
		base := frames[w*4]
		for j := 0; j < 4; j++ {
			if frames[w*4+j] != base+int64(j) {
				t.Fatalf("window %d: frames %v not consecutive", w, frames)
			}
		}
	}
}

// TestRandomDelayWithinAlpha: drawn delays always fall inside [0, α−1].
func TestRandomDelayWithinAlpha(t *testing.T) {
	cfg := DefaultConfig(Online, 8)
	cfg.N = 16
	cfg.InitialC = 64
	m := NewManager(cfg)
	a := alpha(64, 8, 16)
	for trial := 0; trial < 200; trial++ {
		st := m.threads[trial%8]
		m.openSegment(st, trial*16, 16)
		if st.q < 0 || st.q >= a {
			t.Fatalf("q = %d outside [0, %d)", st.q, a)
		}
	}
}

// TestOpenSegmentReRegisters: restarting a segment moves the clock
// registrations (no leaks, no double counting).
func TestOpenSegmentReRegisters(t *testing.T) {
	cfg := DefaultConfig(OnlineDynamic, 1)
	cfg.N = 5
	m := NewManager(cfg)
	st := m.threads[0]
	m.openSegment(st, 0, 5)
	if _, total := m.clock.occupancy(); total != 5 {
		t.Fatalf("registered %d frames, want 5", total)
	}
	m.openSegment(st, 2, 3) // adaptive restart with 3 remaining
	// The clock must hold exactly the new frames: draining them advances
	// past everything (no stale pending from the first registration).
	if _, total := m.clock.occupancy(); total != 3 {
		t.Fatalf("after restart: clock holds %d pending registrations, want 3", total)
	}
}

// TestCommittedAdvancesRegRange: commits retire the registration range as
// a prefix — the range's first frame is the next unretired one, so an
// adaptive restart drops exactly the not-yet-committed suffix.
func TestCommittedAdvancesRegRange(t *testing.T) {
	cfg := DefaultConfig(OnlineDynamic, 1)
	cfg.N = 4
	if a := alpha(float64(cfg.InitialC), cfg.M, cfg.N); a != 1 {
		t.Fatalf("α = %d, want 1 (so q = 0)", a)
	}
	m := NewManager(cfg)
	st := m.threads[0]
	m.openSegment(st, 0, 4)
	base := st.baseFrame
	for j := int64(0); j < 4; j++ {
		m.clock.retire(st.id)
		if r := m.clock.ranges[st.id]; r.first != base+j+1 || r.n != 3-j {
			t.Fatalf("after commit %d: range = [%d,+%d), want [%d,+%d)", j, r.first, r.n, base+j+1, 3-j)
		}
	}
	if _, total := m.clock.occupancy(); total != 0 {
		t.Fatalf("clock holds %d pending after retiring the whole range", total)
	}
}

// TestPrioOrdering: high priority always beats low; among equals π2
// decides; the packed representation preserves that order.
func TestPrioOrdering(t *testing.T) {
	m := NewManager(DefaultConfig(Online, 4))
	mk := func(frame int64, p2 uint64) *stm.Desc {
		d := &stm.Desc{}
		d.Aux.Store(packAux(frame, p2))
		return d
	}
	cur := int64(10)
	high := mk(5, 3)   // frame passed ⇒ high
	low := mk(20, 1)   // frame ahead ⇒ low, even with smaller π2
	high2 := mk(10, 2) // exactly at frame boundary ⇒ high
	if m.prio(cur, high) >= m.prio(cur, low) {
		t.Error("high priority did not beat low")
	}
	if m.prio(cur, high2) >= m.prio(cur, high) {
		t.Error("π2 2 did not beat π2 3 among high")
	}
	if m.prio(cur, low)>>32 == 0 {
		t.Error("low priority bit not set")
	}
}

// TestAbortedRedrawsP2, while entering through Resolve keeps π2. The
// transaction enters the window first (its first abort does that), so the
// frame the redraw must leave alone is a registered one, not the outside
// frame 0.
func TestAbortedRedrawsP2(t *testing.T) {
	cfg := DefaultConfig(Online, 1<<14) // wide π2 range
	m := NewManager(cfg)
	rt := stm.New(1, m)
	var captured *stm.Tx
	rt.Thread(0).Atomic(func(tx *stm.Tx) { captured = tx })
	m.clock.jump(7) // so a scheduled frame is told apart from frame 0
	m.Aborted(captured)
	if !m.threads[0].inWindow.Load() {
		t.Fatal("first abort did not enter the window")
	}
	before := auxP2(captured.D.Aux.Load())
	frame := auxFrame(captured.D.Aux.Load())
	if frame != m.threads[0].assigned || frame < 7 {
		t.Fatalf("entered at frame %d, assigned %d, clock at 7", frame, m.threads[0].assigned)
	}
	changed := false
	for i := 0; i < 16 && !changed; i++ {
		m.Aborted(captured)
		changed = auxP2(captured.D.Aux.Load()) != before
	}
	if !changed {
		t.Error("π2 never redrawn across 16 aborts")
	}
	if auxFrame(captured.D.Aux.Load()) != frame {
		t.Error("redraw disturbed the assigned frame")
	}

	// enter's contract: the running transaction keeps the π2 it holds, so
	// enemies that compared against it before see the same second component.
	// The wide π2 range makes a redraw that lands on the old value unlikely.
	m2 := NewManager(DefaultConfig(Online, 1<<14))
	rt2 := stm.New(2, m2)
	var enemy *stm.Tx
	rt2.Thread(0).Atomic(func(tx *stm.Tx) { captured = tx })
	rt2.Thread(1).Atomic(func(tx *stm.Tx) { enemy = tx })
	m2.clock.jump(7)
	p2 := auxP2(captured.D.Aux.Load())
	m2.Resolve(captured, enemy, stm.WriteWrite, 1)
	if !m2.threads[0].inWindow.Load() {
		t.Fatal("first Resolve did not enter the window")
	}
	aux := captured.D.Aux.Load()
	if auxP2(aux) != p2 {
		t.Errorf("entering through Resolve changed π2 from %d to %d", p2, auxP2(aux))
	}
	if auxFrame(aux) != m2.threads[0].assigned || auxFrame(aux) < 7 {
		t.Errorf("entered at frame %d, assigned %d, clock at 7", auxFrame(aux), m2.threads[0].assigned)
	}
}

// TestResolveTotalOrder: for any pair, exactly one side wins immediately
// (the other waits or self-aborts) — no mutual kills, no mutual stalls
// past patience.
func TestResolveTotalOrder(t *testing.T) {
	m := NewManager(DefaultConfig(OnlineDynamic, 4))
	rt := stm.New(2, m)
	var a, b *stm.Tx
	rt.Thread(0).Atomic(func(tx *stm.Tx) { a = tx })
	rt.Thread(1).Atomic(func(tx *stm.Tx) { b = tx })
	da, _ := m.Resolve(a, b, stm.WriteWrite, loserPatience+1)
	db, _ := m.Resolve(b, a, stm.WriteWrite, loserPatience+1)
	if da == stm.AbortEnemy && db == stm.AbortEnemy {
		t.Error("both sides abort each other")
	}
	if da != stm.AbortEnemy && db != stm.AbortEnemy {
		t.Error("neither side wins past patience")
	}
}

// TestBadEventTriggersRestart: a committed transaction whose frame has
// passed must double the Adaptive estimate and restart the remaining
// schedule. Bad events are a property of scheduled transactions, so the
// thread enters the window first, on an abort of its own.
func TestBadEventTriggersRestart(t *testing.T) {
	cfg := DefaultConfig(Adaptive, 1)
	cfg.N = 6
	m := NewManager(cfg)
	rt := stm.New(1, m)
	th := rt.Thread(0)

	// The first attempt aborts itself, which enters the window; the second
	// forces the clock far ahead of the assigned frame, then commits.
	th.Atomic(abortOnce(t, func(*stm.Tx) { m.clock.jump(10) }))
	if m.BadEvents() != 1 {
		t.Fatalf("bad events = %d, want 1", m.BadEvents())
	}
	if got := m.EstimateC(0); got != 2 {
		t.Fatalf("estimate = %v, want 2 (doubled)", got)
	}
	// The restart rescheduled the remaining 5 transactions.
	if got := m.threads[0].remaining; got != 5 {
		t.Fatalf("remaining = %d, want 5", got)
	}
	if st := m.threads[0]; st.startSeq != 1 || st.baseFrame < 10 {
		t.Fatalf("restart opened at seq %d, base frame %d; want seq 1 at the jumped clock", st.startSeq, st.baseFrame)
	}
}
