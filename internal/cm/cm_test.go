package cm_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"wincm/internal/cm"
	"wincm/internal/harness"
	"wincm/internal/stm"
)

// descPair builds two committed-capturing transactions with controlled
// birth order: a (older) then b (younger).
func descPair(t *testing.T) (older, younger *stm.Tx) {
	t.Helper()
	rt := stm.New(2, cm.NewPriority())
	rt.Thread(0).Atomic(func(tx *stm.Tx) { older = tx })
	time.Sleep(time.Millisecond)
	rt.Thread(1).Atomic(func(tx *stm.Tx) { younger = tx })
	if older.D.Birth.Load() >= younger.D.Birth.Load() {
		t.Fatal("birth order not established")
	}
	return older, younger
}

// TestRegistryContents pins the exact registry: the five window variants
// and the five baselines, so a stray registration fails here.
func TestRegistryContents(t *testing.T) {
	want := []string{"adaptive", "adaptive-improved", "adaptive-improved-dynamic", "backoff",
		"greedy", "online", "online-dynamic", "polka", "priority", "timestamp"}
	if got := harness.ManagerNames(); !slices.Equal(got, want) {
		t.Errorf("registered managers = %v, want %v", got, want)
	}
	if _, err := cm.New("no-such-cm", 1); err == nil {
		t.Error("unknown manager accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	cm.Register("polka", func(int) stm.ContentionManager { return cm.NewPolka() })
}

func TestPriorityDecidesByAge(t *testing.T) {
	older, younger := descPair(t)
	p := cm.NewPriority()
	if d, _ := p.Resolve(older, younger, stm.WriteWrite, 1); d != stm.AbortEnemy {
		t.Errorf("older attacker: %v, want abort-enemy", d)
	}
	if d, _ := p.Resolve(younger, older, stm.WriteWrite, 1); d != stm.Wait {
		t.Errorf("younger attacker: %v, want wait (poll the older enemy)", d)
	}
}

func TestGreedyDecisions(t *testing.T) {
	older, younger := descPair(t)
	g := cm.NewGreedy()
	// Older attacker kills the younger enemy.
	if d, _ := g.Resolve(older, younger, stm.WriteWrite, 1); d != stm.AbortEnemy {
		t.Errorf("older attacker: %v", d)
	}
	// Younger attacker waits on an active older enemy...
	if d, _ := g.Resolve(younger, older, stm.WriteWrite, 1); d != stm.Wait {
		t.Errorf("younger attacker vs running older: %v", d)
	}
	// ...but kills it once the older enemy is itself waiting.
	older.D.Waiting.Store(true)
	if d, _ := g.Resolve(younger, older, stm.WriteWrite, 1); d != stm.AbortEnemy {
		t.Errorf("younger attacker vs waiting older: %v", d)
	}
	older.D.Waiting.Store(false)
}

// TestGreedyNeverMutualWait: for any pair, at most one side may wait —
// the pending-commit property's mechanical prerequisite.
func TestGreedyNeverMutualWait(t *testing.T) {
	a, b := descPair(t)
	g := cm.NewGreedy()
	da, _ := g.Resolve(a, b, stm.WriteWrite, 1)
	db, _ := g.Resolve(b, a, stm.WriteWrite, 1)
	if da == stm.Wait && db == stm.Wait {
		t.Error("both sides wait")
	}
}

func TestTimestampGivesBoundedGrace(t *testing.T) {
	older, younger := descPair(t)
	ts := cm.NewTimestamp()
	if d, _ := ts.Resolve(older, younger, stm.WriteWrite, 1); d != stm.AbortEnemy {
		t.Errorf("older attacker: %v", d)
	}
	for attempt := 1; attempt <= cm.TimestampRounds; attempt++ {
		if d, _ := ts.Resolve(younger, older, stm.WriteWrite, attempt); d != stm.Wait {
			t.Fatalf("attempt %d: %v, want wait", attempt, d)
		}
	}
	if d, _ := ts.Resolve(younger, older, stm.WriteWrite, cm.TimestampRounds+1); d != stm.AbortEnemy {
		t.Errorf("past grace: %v, want abort-enemy", d)
	}
}

func TestPolkaWaitsPriorityGapRounds(t *testing.T) {
	a, b := descPair(t)
	p := cm.NewPolka()
	a.D.Karma.Store(0)
	b.D.Karma.Store(3)
	for attempt := 1; attempt <= 3; attempt++ {
		d, w := p.Resolve(a, b, stm.WriteWrite, attempt)
		if d != stm.Wait {
			t.Fatalf("attempt %d: %v, want wait", attempt, d)
		}
		if w <= 0 {
			t.Fatalf("attempt %d: non-positive wait", attempt)
		}
	}
	if d, _ := p.Resolve(a, b, stm.WriteWrite, 4); d != stm.AbortEnemy {
		t.Errorf("past gap: %v, want abort-enemy", d)
	}
	// Equal karma: no grace at all.
	b.D.Karma.Store(0)
	if d, _ := p.Resolve(a, b, stm.WriteWrite, 1); d != stm.AbortEnemy {
		t.Errorf("equal karma: %v, want abort-enemy", d)
	}
	// Gap capped at PolkaMaxRounds.
	b.D.Karma.Store(1000)
	if d, _ := p.Resolve(a, b, stm.WriteWrite, cm.PolkaMaxRounds+1); d != stm.AbortEnemy {
		t.Errorf("huge gap: %v, want abort-enemy after cap", d)
	}
	p.Committed(b)
	if b.D.Karma.Load() != 0 {
		t.Error("Polka did not reset karma on commit")
	}
}

func TestBackoffAbortsSelf(t *testing.T) {
	a, b := descPair(t)
	bo := cm.NewBackoff()
	if d, _ := bo.Resolve(a, b, stm.WriteWrite, 1); d != stm.AbortSelf {
		t.Error("Backoff did not abort self")
	}
}

// TestKarmaOpenAccumulation: opening variables raises the karma Polka's
// priority reads, through the real runtime hooks.
func TestKarmaOpenAccumulation(t *testing.T) {
	rt := stm.New(1, cm.NewPolka())
	vars := []*stm.TVar[int]{stm.NewTVar(1), stm.NewTVar(2), stm.NewTVar(3)}
	var karma int64
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		for _, v := range vars {
			stm.Read(tx, v)
		}
		karma = tx.D.Karma.Load()
	})
	if karma != 3 {
		t.Errorf("karma after 3 opens = %d", karma)
	}
}

// TestAllManagersMakeProgressUnderConflict: every registered manager
// commits a contended counter workload correctly (no deadlock or livelock
// in practice) under the scheduler's own interleaving.
func TestAllManagersMakeProgressUnderConflict(t *testing.T) {
	for _, name := range cm.Names() {
		t.Run(name, func(t *testing.T) { counterProgress(t, name, 0, 100) })
	}
}

// TestExtraManagersProgress: the same workload with every fourth open
// yielding, which forces attempts to interleave inside the window where
// the managers' wait and abort decisions are made.
func TestExtraManagersProgress(t *testing.T) {
	for _, name := range cm.Names() {
		t.Run(name, func(t *testing.T) { counterProgress(t, name, 4, 150) })
	}
}

// counterProgress runs four threads that each commit perThread increments
// of one shared counter under the named manager, with the runtime yielding
// every yieldEvery opens (0 leaves the knob off), and fails on a wrong
// total or if the workload has not finished within 30 s.
func counterProgress(t *testing.T, name string, yieldEvery, perThread int) {
	t.Parallel()
	mgr, err := cm.New(name, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt := stm.New(4, mgr)
	rt.SetYieldEvery(yieldEvery)
	v := stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < perThread; j++ {
				th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, v, stm.Read(tx, v)+1)
				})
			}
		}(rt.Thread(i))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workload did not finish (livelock?)")
	}
	if got, want := v.Peek(), 4*perThread; got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
}
