package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// gauge reads one of the manager's telemetry gauges by name.
func gauge(t *testing.T, m *Manager, name string) float64 {
	t.Helper()
	for _, g := range m.TelemetryGauges() {
		if g.Name() == name {
			return g.Value()
		}
	}
	t.Fatalf("gauge %s missing", name)
	return 0
}

// abortOnce returns a transaction body that aborts its own first attempt —
// the thread's first conflict, which is what takes it into the window — and
// runs body on the retry.
func abortOnce(t *testing.T, body func(tx *stm.Tx)) func(tx *stm.Tx) {
	first := true
	v := stm.NewTVar(0)
	return func(tx *stm.Tx) {
		if first {
			first = false
			tx.Abort()
			stm.Read(tx, v) // the next open notices the abort and unwinds
			t.Error("aborted attempt ran on")
		}
		if body != nil {
			body(tx)
		}
	}
}

// TestThreadStateWholeCacheLines: the states are allocated one by one, so
// two threads' hot fields stay on different lines only if the struct fills
// whole lines.
func TestThreadStateWholeCacheLines(t *testing.T) {
	if sz := unsafe.Sizeof(threadState{}); sz%64 != 0 {
		t.Errorf("threadState is %d bytes, not a multiple of 64; adjust the pad", sz)
	}
}

// TestUnconflictedCommitZeroAlloc: the floor every unconflicted commit of a
// kv shard pays — Begin and Committed on a thread that stays outside the
// window — allocates nothing.
func TestUnconflictedCommitZeroAlloc(t *testing.T) {
	m := New(AdaptiveImprovedDynamic, 2)
	th := stm.New(2, m).Thread(0)
	empty := func(*stm.Tx) {}
	if n := testing.AllocsPerRun(1000, func() { th.Atomic(empty) }); n != 0 {
		t.Errorf("unconflicted commit allocates %.1f per run, want 0", n)
	}
	if m.threads[0].inWindow.Load() {
		t.Error("an unconflicted thread entered the window")
	}
}

// TestConflictFreeCommitsTouchNothingShared: 10k commits that conflict
// with nobody, on the default manager with M = 2, never register a frame,
// never look at the clock and never write τ̂ or a shared counter — and the
// runtime still counts every one of them.
func TestConflictFreeCommitsTouchNothingShared(t *testing.T) {
	const threads, per = 2, 5000
	m := New(AdaptiveImprovedDynamic, threads)
	rt := stm.New(threads, m)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			own := stm.NewTVar(0)
			for j := 0; j < per; j++ {
				if info := th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, own, stm.Read(tx, own)+1)
				}); info.Aborts() != 0 {
					t.Errorf("disjoint transaction aborted %d times", info.Aborts())
				}
			}
		}(rt.Thread(i))
	}
	wg.Wait()

	if cur, total := m.Occupancy(); cur != 0 || total != 0 {
		t.Errorf("Occupancy() = (%d, %d), want (0, 0)", cur, total)
	}
	if got := m.BadEvents(); got != 0 {
		t.Errorf("BadEvents() = %d, want 0", got)
	}
	c := m.clock
	// No registration ever: the skip bound never moved and every thread's
	// range still holds its zero value (a range opened and since
	// retired or dropped leaves its end frame behind). No clock read either:
	// nothing advanced it.
	if got := c.maxReg; got != 0 {
		t.Errorf("a frame was registered (maxReg = %d)", got)
	}
	for i := range c.ranges {
		if r := c.ranges[i]; r != (frameRange{}) {
			t.Fatalf("thread %d's range was written (%+v)", i, r)
		}
	}
	if got := c.cur(); got != 0 {
		t.Errorf("the clock was polled and advanced to frame %d", got)
	}
	// No shared word written: the frame length is the one built from the
	// initial τ̂, while each thread's own τ̂ moved.
	if got, want := c.dur.Load(), int64(float64(tauGuess)*lnMN(threads, m.cfg.N)); got != want {
		t.Errorf("frame duration = %d, want the initial %d", got, want)
	}
	if got := m.PriorityCollisions() + m.FallbackCommits(); got != 0 {
		t.Errorf("collisions + fallbacks = %d, want 0", got)
	}
	for i, st := range m.threads {
		if st.inWindow.Load() || st.cells[cellEntries].Load() != 0 {
			t.Errorf("thread %d entered the window without a conflict", i)
		}
		if st.tau.Load() == int64(tauGuess) {
			t.Errorf("thread %d folded no attempt time into its τ̂", i)
		}
	}
	if got := rt.Commits(); got != threads*per {
		t.Errorf("rt.Commits() = %d, want %d", got, threads*per)
	}
	if got := gauge(t, m, "wincm_window_threads_outside"); got != threads {
		t.Errorf("wincm_window_threads_outside = %v, want %d", got, threads)
	}
}

// TestFirstResolveEntersBeforeComparing: an outside transaction's first
// Resolve gives it a registered frame and leaves its π⁽²⁾ alone before the
// priority vectors are compared, and an enemy still outside reads as π⁽¹⁾
// high. The vectors are rigged so the order of the two steps decides the
// outcome: compared at frame 0, a (π⁽²⁾ = 1) would beat b (π⁽²⁾ = 2); having
// entered at a frame q > 0 ahead of the clock, a is low priority and must
// not.
func TestFirstResolveEntersBeforeComparing(t *testing.T) {
	cfg := DefaultConfig(OnlineDynamic, 2)
	cfg.InitialC = 200 // α = 43: q = 0 has probability 1/43
	m := NewManager(cfg)
	// Freeze time: a dynamic clock whose allowance lapses skips straight to
	// the first registered frame, which would make a high priority again.
	m.clock.nowFn = func() int64 { return 0 }
	rt := stm.New(2, m)
	var a, b *stm.Tx
	rt.Thread(0).Atomic(func(tx *stm.Tx) { a = tx })
	rt.Thread(1).Atomic(func(tx *stm.Tx) { b = tx })
	m.clock.jump(5)
	a.D.Aux.Store(packAux(0, 1))
	b.D.Aux.Store(packAux(0, 2))

	dec, _ := m.Resolve(a, b, stm.WriteWrite, 1)

	sa, sb := m.threads[0], m.threads[1]
	if !sa.inWindow.Load() || sa.cells[cellEntries].Load() != 1 {
		t.Fatal("the resolving thread did not enter the window")
	}
	if sa.q == 0 {
		t.Fatal("seed drew q = 0, which cannot tell the two orders apart; pick another Seed")
	}
	aux := a.D.Aux.Load()
	if auxFrame(aux) != sa.assigned || sa.assigned != sa.baseFrame+sa.q || sa.baseFrame < 5 {
		t.Errorf("frame %d, assigned %d, base %d, q %d", auxFrame(aux), sa.assigned, sa.baseFrame, sa.q)
	}
	if got := m.clock.pendingAt(sa.assigned); got != 1 {
		t.Errorf("assigned frame holds %d registrations, want 1", got)
	}
	if _, total := m.Occupancy(); total != int64(cfg.N) {
		t.Errorf("entry registered %d frames, want N = %d", total, cfg.N)
	}
	if sa.remaining != cfg.N-1 {
		t.Errorf("remaining = %d, want %d (the running transaction took position 0)", sa.remaining, cfg.N-1)
	}
	if auxP2(aux) != 1 {
		t.Errorf("entering changed π⁽²⁾ to %d", auxP2(aux))
	}
	if sb.inWindow.Load() || b.D.Aux.Load() != packAux(0, 2) {
		t.Error("resolving against an enemy moved the enemy's state")
	}
	if m.prio(m.clock.Current(), b.D)>>32 != 0 {
		t.Error("an outside enemy does not read as π⁽¹⁾ high")
	}
	if dec == stm.AbortEnemy {
		t.Error("priorities were compared before the entry: a low-priority transaction beat a high one")
	}
}

// TestCleanSegmentLeavesConflictedChains: the segment a thread entered on
// is conflicted by definition, so it chains into a second one at the next
// Begin; that one sees no conflict and takes the thread back outside with
// nothing left registered.
func TestCleanSegmentLeavesConflictedChains(t *testing.T) {
	const n = 4
	cfg := DefaultConfig(OnlineDynamic, 1)
	cfg.N = n
	m := NewManager(cfg)
	th := stm.New(1, m).Thread(0)
	st := m.threads[0]
	empty := func(*stm.Tx) {}

	th.Atomic(abortOnce(t, nil)) // enters; position 0 of the first segment
	if !st.inWindow.Load() || st.remaining != n-1 {
		t.Fatalf("after the entering transaction: inWindow=%v remaining=%d", st.inWindow.Load(), st.remaining)
	}
	for i := 1; i < n; i++ {
		th.Atomic(empty)
	}
	if !st.inWindow.Load() || st.remaining != 0 || st.cells[cellCleanExits].Load() != 0 {
		t.Fatalf("a conflicted segment must not leave: inWindow=%v remaining=%d exits=%d",
			st.inWindow.Load(), st.remaining, st.cells[cellCleanExits].Load())
	}

	// The next Begin opens the chained segment and registers its frames.
	th.Atomic(func(tx *stm.Tx) {
		if _, total := m.Occupancy(); total != n {
			t.Errorf("chained segment registered %d frames, want %d", total, n)
		}
		if auxFrame(tx.D.Aux.Load()) != st.assigned {
			t.Error("chained transaction not scheduled")
		}
	})
	for i := 1; i < n; i++ {
		th.Atomic(empty)
	}
	if st.inWindow.Load() || st.cells[cellCleanExits].Load() != 1 || st.cells[cellEntries].Load() != 1 {
		t.Fatalf("a clean segment must leave: inWindow=%v exits=%d entries=%d",
			st.inWindow.Load(), st.cells[cellCleanExits].Load(), st.cells[cellEntries].Load())
	}
	if cur, total := m.Occupancy(); cur != 0 || total != 0 {
		t.Errorf("Occupancy() = (%d, %d) after leaving", cur, total)
	}

	// Outside again: frame 0, nothing registered, and the next conflict
	// enters a second time.
	th.Atomic(func(tx *stm.Tx) {
		if auxFrame(tx.D.Aux.Load()) != 0 {
			t.Error("an outside transaction carries a scheduled frame")
		}
	})
	if _, total := m.Occupancy(); total != 0 {
		t.Errorf("an outside commit registered %d frames", total)
	}
	th.Atomic(abortOnce(t, nil))
	if !st.inWindow.Load() || st.cells[cellEntries].Load() != 2 {
		t.Error("the second conflict did not enter again")
	}
	if got := th.Runtime().Commits(); got != 2*n+2 {
		t.Errorf("rt.Commits() = %d, want %d", got, 2*n+2)
	}
}

// TestSampledTauTracksEWMA feeds a synthetic stream of attempt times —
// three levels, ±25% noise — to the sampling rule and to an EWMA that
// folds every attempt: at the end of each level, the τ̂ the sampled
// transactions fold lands within 10% of the unsampled one.
func TestSampledTauTracksEWMA(t *testing.T) {
	r := rng.New(17)
	st := &threadState{}
	st.tau.Store(int64(tauGuess))
	full := int64(tauGuess)
	seq := 0
	for _, level := range []float64{20e3, 60e3, 5e3} {
		for range 4000 {
			attempt := int64(level * (0.75 + 0.5*r.Float64()))
			full += int64(tauWeight * float64(attempt-full))
			if tauSampled(seq) {
				st.fold(attempt)
			}
			seq++
		}
		tau := st.tau.Load()
		if diff := math.Abs(float64(tau-full)) / float64(full); diff > 0.10 {
			t.Errorf("level %.0f ns: sampled τ̂ %d is %.1f%% off the unsampled %d", level, tau, 100*diff, full)
		}
	}
}

// TestPlantedOutliersKeepFrames: in a stream of attempt times where one
// sample in a hundred is 100× the rest — an attempt stretched by a
// preemption or a pause — the clip keeps each outlier to one bounded step,
// so Φ stays within 2× of the clean stream's throughout.
func TestPlantedOutliersKeepFrames(t *testing.T) {
	clean, planted := New(AdaptiveImprovedDynamic, 1), New(AdaptiveImprovedDynamic, 1)
	r := rng.New(23)
	for i := range 5000 {
		attempt := int64(10e3 * (0.75 + 0.5*r.Float64()))
		clean.threads[0].fold(attempt)
		if i%100 == 50 {
			attempt *= 100
		}
		planted.threads[0].fold(attempt)
		if i < 100 {
			continue // both still climbing from tauGuess
		}
		if c, p := clean.frameDur(), planted.frameDur(); p > 2*c || p < c/2 {
			t.Fatalf("sample %d: Φ %v under outliers, %v clean", i, p, c)
		}
	}
}

// TestCommitsSampleOneInEight: through the runtime, an outside thread folds
// the attempt time of one transaction in tauSampleEvery into its τ̂ — the
// sampled ones and no other. τ̂ is set far above any attempt before each
// transaction, so every fold moves it.
func TestCommitsSampleOneInEight(t *testing.T) {
	m := New(AdaptiveImprovedDynamic, 1)
	th := stm.New(1, m, stm.WithoutTxTiming()).Thread(0)
	st := m.threads[0]
	v := stm.NewTVar(0)
	const n, high = 10 * tauSampleEvery, int64(1) << 40
	for range n {
		st.tau.Store(high)
		seq := -1
		th.Atomic(func(tx *stm.Tx) {
			seq = tx.D.Seq
			stm.Write(tx, v, stm.Read(tx, v)+1)
		})
		if moved := st.tau.Load() != high; moved != tauSampled(seq) {
			t.Errorf("transaction %d: τ̂ moved %v, sampled %v", seq, moved, tauSampled(seq))
		}
	}
}

// TestCountersLandInTheDecidingThreadsCell: a priority tie is counted on
// the thread whose Resolve found it, a bad event and a fallback commit on
// the thread that committed, and the accessors and gauges sum the cells.
func TestCountersLandInTheDecidingThreadsCell(t *testing.T) {
	cfg := DefaultConfig(Online, 2)
	cfg.InitialC = 1 // α = 1: q = 0, so an entering transaction is high at once
	m := NewManager(cfg)
	m.clock.nowFn = func() int64 { return 0 } // frames move only by jump
	rt := stm.New(2, m, stm.WithFallback(2, 0))
	var a, b *stm.Tx
	rt.Thread(0).Atomic(func(tx *stm.Tx) { a = tx })
	rt.Thread(1).Atomic(func(tx *stm.Tx) { b = tx })
	a.D.Aux.Store(packAux(0, 3))
	b.D.Aux.Store(packAux(0, 3))

	// Ties: thread 1 resolves twice, thread 0 once; both enter at the
	// current frame with π⁽²⁾ = 3, so every comparison ties.
	m.Resolve(b, a, stm.WriteWrite, 1)
	m.Resolve(b, a, stm.WriteWrite, 1)
	m.Resolve(a, b, stm.WriteWrite, 1)

	// A bad event on thread 0: its next transaction's frame passes before
	// it commits.
	rt.Thread(0).Atomic(func(*stm.Tx) { m.clock.jump(5) })

	// A fallback commit on thread 1: two aborts spend the attempt budget,
	// and the third attempt commits holding the token (late, too, but a
	// token holder's miss is not a bad event).
	v := stm.NewTVar(0)
	attempts := 0
	if info := rt.Thread(1).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, 1)
		if attempts++; attempts <= 2 {
			tx.Abort()
			stm.Read(tx, v)
		}
	}); !info.Fallback {
		t.Fatal("the third attempt did not hold the fallback token")
	}

	for _, c := range []struct {
		name  string
		cell  cell
		per   [2]int64
		total int64
		gauge string
	}{
		{"PriorityCollisions", cellCollisions, [2]int64{1, 2}, m.PriorityCollisions(), "wincm_window_priority_collisions"},
		{"BadEvents", cellBadEvents, [2]int64{1, 0}, m.BadEvents(), "wincm_window_bad_events"},
		{"FallbackCommits", cellFallbacks, [2]int64{0, 1}, m.FallbackCommits(), "wincm_window_fallback_commits"},
	} {
		for i, want := range c.per {
			if got := m.threads[i].cells[c.cell].Load(); got != want {
				t.Errorf("%s: thread %d's cell = %d, want %d", c.name, i, got, want)
			}
		}
		if want := c.per[0] + c.per[1]; c.total != want || gauge(t, m, c.gauge) != float64(want) {
			t.Errorf("%s() = %d, %s = %v, want %d", c.name, c.total, c.gauge, gauge(t, m, c.gauge), want)
		}
	}
}

// TestFrameHookKeepsCadenceOutside: with a frame hook installed, commits of
// a thread that never enters the window still poll the clock, so frame
// consumers are driven at frame cadence.
func TestFrameHookKeepsCadenceOutside(t *testing.T) {
	m := New(Online, 1)
	var fired atomic.Int64
	m.AddFrameHook(func(int64) { fired.Add(1) })
	th := stm.New(1, m).Thread(0)
	deadline := time.Now().Add(5 * time.Second)
	for fired.Load() < 3 && time.Now().Before(deadline) {
		th.Atomic(func(*stm.Tx) {})
	}
	if fired.Load() < 3 {
		t.Fatalf("hook fired %d times under outside commits", fired.Load())
	}
	if st := m.threads[0]; st.inWindow.Load() || st.cells[cellEntries].Load() != 0 {
		t.Error("polling the clock for the hook entered the window")
	}
}
