package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// patientCM makes the higher thread ID wait span, long enough that
// resolve parks it on its enemy, and the lower one abort its enemy: the
// total order keeps two losers that both read v from waiting on each other.
type patientCM struct {
	NopManager
	span atomic.Int64
}

func (m *patientCM) Resolve(tx, enemy *Tx, _ Kind, _ int) (Decision, time.Duration) {
	if tx.D.ThreadID < enemy.D.ThreadID {
		return AbortEnemy, 0
	}
	return Wait, time.Duration(m.span.Load())
}

// wakeSlack is how soon after its enemy's attempt ends a parked loser must
// have resumed, a tenth of the 1s span it was granted.
const wakeSlack = 100 * time.Millisecond

// parkedRound runs one round on rt: thread enemy writes v and holds its
// attempt open until every loser thread is parked behind it, hold more
// passes, and then ends it by committing or, with abort, by aborting itself
// (its retry writes nothing). Each loser's transaction writes v too. It
// returns when the enemy's first attempt ended and the latest loser's
// commit.
func parkedRound(t *testing.T, rt *Runtime, v *TVar[int], enemy int, losers []int, hold time.Duration, abort bool) (ended, resumed time.Time) {
	t.Helper()
	held, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1 + len(losers))
	go func() {
		defer wg.Done()
		first := true
		rt.Thread(enemy).Atomic(func(tx *Tx) {
			if !first {
				return
			}
			first = false
			Write(tx, v, Read(tx, v)+1)
			close(held)
			<-release
			if abort {
				tx.Abort()
			}
			ended = time.Now()
		})
	}()
	<-held
	for _, id := range losers {
		go func(th *Thread) {
			defer wg.Done()
			th.Atomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
			mu.Lock()
			if now := time.Now(); now.After(resumed) {
				resumed = now
			}
			mu.Unlock()
		}(rt.Thread(id))
	}
	for _, id := range losers {
		for !rt.Thread(id).desc.Waiting.Load() {
			time.Sleep(100 * time.Microsecond)
		}
	}
	time.Sleep(hold)
	close(release)
	wg.Wait()
	return ended, resumed
}

// TestParkedLoserWakesWhenEnemyEnds: a loser granted a 1s Wait parks on
// its enemy and resumes within wakeSlack of the enemy's attempt ending,
// whether that attempt commits or aborts; Verdicts.WaitNs reports the time
// it waited, not the span it was granted.
func TestParkedLoserWakesWhenEnemyEnds(t *testing.T) {
	for _, abort := range []bool{false, true} {
		mgr := &patientCM{}
		mgr.span.Store(int64(time.Second))
		rt := New(2, mgr)
		v := NewTVar(0)
		const hold = 20 * time.Millisecond
		ended, resumed := parkedRound(t, rt, v, 0, []int{1}, hold, abort)
		if late := resumed.Sub(ended); late > wakeSlack {
			t.Errorf("abort=%v: loser resumed %v after its enemy ended, want within %v of it", abort, late, wakeSlack)
		}
		want := 1
		if !abort {
			want = 2
		}
		if got := v.Peek(); got != want {
			t.Errorf("abort=%v: v = %d, want %d", abort, got, want)
		}
		if ns := time.Duration(rt.Verdicts().WaitNs); ns < hold || ns >= time.Second {
			t.Errorf("abort=%v: Verdicts().WaitNs = %v, want the time waited: at least the %v hold, below the 1s span", abort, ns, hold)
		}
	}
}

// TestStaleWakeKeepsNextWait: a wake left in a thread's channel by an
// earlier park — one that timed out just as its enemy's cleanup took the
// waiter set — does not cut the thread's next park short. First the loser
// times out on 2ms spans behind a 20ms hold; then a stale wake is planted,
// and a 1s Wait behind a second hold must take exactly one verdict and end
// with the enemy, not at once.
func TestStaleWakeKeepsNextWait(t *testing.T) {
	mgr := &patientCM{}
	mgr.span.Store(int64(2 * time.Millisecond))
	rt := New(2, mgr)
	v := NewTVar(0)
	parkedRound(t, rt, v, 0, []int{1}, 20*time.Millisecond, false)
	if w := rt.Verdicts().Wait; w < 2 {
		t.Fatalf("%d Wait verdicts behind a 20ms hold at a 2ms span, want the loser to time out and wait again", w)
	}
	mgr.span.Store(int64(time.Second))
	select {
	case rt.Thread(1).tx.wake <- struct{}{}:
	default:
	}
	before := rt.Verdicts().Wait
	const hold = 20 * time.Millisecond
	ended, resumed := parkedRound(t, rt, v, 0, []int{1}, hold, false)
	if w := rt.Verdicts().Wait - before; w != 1 {
		t.Errorf("the loser took %d Wait verdicts behind one enemy, want 1: the stale wake cut its park short", w)
	}
	if late := resumed.Sub(ended); late > wakeSlack {
		t.Errorf("loser resumed %v after its enemy ended, want within %v", late, wakeSlack)
	}
}

// TestParkAboveSixtyFourThreads: at M = 100, losers whose thread IDs sit in
// both waiter words the runtime uses park on one enemy and all resume once
// it commits.
func TestParkAboveSixtyFourThreads(t *testing.T) {
	mgr := &patientCM{}
	mgr.span.Store(int64(time.Second))
	rt := New(100, mgr)
	v := NewTVar(0)
	losers := []int{5, 70, 99}
	ended, resumed := parkedRound(t, rt, v, 0, losers, 10*time.Millisecond, false)
	if late := resumed.Sub(ended); late > wakeSlack {
		t.Errorf("last loser resumed %v after the enemy ended, want within %v", late, wakeSlack)
	}
	if got, want := v.Peek(), 1+len(losers); got != want {
		t.Errorf("v = %d, want %d", got, want)
	}
}
