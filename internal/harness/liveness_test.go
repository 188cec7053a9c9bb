package harness

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// adversary attacks a runtime's progress guarantee from outside. As a
// probe it stalls an attempt for up to 2 ms on about 1% of opens and
// acquires (an acquire is the worst moment: enemies must remote-abort the
// staller to proceed) and spuriously aborts about 0.5% of attempts there,
// never the fallback-token holder. As the flipper's source it also decides
// which contention-manager verdicts get flipped. Every hook runs on the
// transaction's own thread, so each thread draws from its own stream.
type adversary struct {
	armed  atomic.Bool
	faults atomic.Int64
	rngs   []*rng.Rand
}

func newAdversary(threads int, seed uint64) *adversary {
	a := &adversary{rngs: make([]*rng.Rand, threads)}
	root := rng.New(seed)
	for i := range a.rngs {
		a.rngs[i] = root.Split()
	}
	return a
}

// roll returns a draw in [0, 1000) from tx's thread stream, or 1000 (no
// fault) while the adversary is disarmed.
func (a *adversary) roll(tx *stm.Tx) uint64 {
	if !a.armed.Load() {
		return 1000
	}
	return a.rngs[tx.D.ThreadID].Uint64n(1000)
}

func (a *adversary) inject(tx *stm.Tx) {
	switch r := a.roll(tx); {
	case r < 10:
		a.faults.Add(1)
		time.Sleep(time.Duration(1 + a.rngs[tx.D.ThreadID].Uint64n(uint64(2*time.Millisecond))))
	case r < 15 && !tx.HoldsFallback():
		a.faults.Add(1)
		tx.Abort()
	}
}

func (a *adversary) OnOpen(tx *stm.Tx)    { a.inject(tx) }
func (a *adversary) OnAcquire(tx *stm.Tx) { a.inject(tx) }
func (a *adversary) OnBegin(*stm.Tx)      {}
func (a *adversary) OnCommit(*stm.Tx)     {}
func (a *adversary) OnAbort(*stm.Tx)      {}
func (a *adversary) OnResolve(*stm.Tx, *stm.Tx, uint64, int64, stm.Kind, stm.Decision, time.Duration) {
}

// flipper wraps a contention manager and flips about 2% of its verdicts:
// abort-enemy becomes a short wait, a wait becomes abort-self, abort-self
// becomes abort-enemy. It never sees a conflict the fallback token decides,
// because the runtime settles those before asking any manager.
type flipper struct {
	stm.ContentionManager
	adv *adversary
}

func (f flipper) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	dec, wait := f.ContentionManager.Resolve(tx, enemy, kind, attempt)
	if f.adv.roll(tx) >= 20 {
		return dec, wait
	}
	f.adv.faults.Add(1)
	switch dec {
	case stm.AbortEnemy:
		return stm.Wait, 100 * time.Microsecond
	case stm.Wait:
		return stm.AbortSelf, 0
	default:
		return stm.AbortEnemy, 0
	}
}

// TestChaosGracefulDegradation is the liveness check over the fallback
// token and the watchdog: every registered manager runs a set benchmark at
// M=8 for 30 ms with the budgets winkv arms and a watchdog, under the
// adversary and the flipper. Every cell must commit, inject at least one
// fault, drain to quiescence (no transaction permanently stuck, the token
// free) and leave the workload's invariants intact.
func TestChaosGracefulDegradation(t *testing.T) {
	managers := ManagerNames()
	benchmarks := []string{"list", "rbtree", "skiplist"}
	if testing.Short() {
		managers = []string{"polka", "greedy", "online-dynamic"}
		benchmarks = []string{"list"}
	}
	for _, b := range benchmarks {
		for _, mgr := range managers {
			t.Run(b+"/"+mgr, func(t *testing.T) {
				t.Parallel()
				livenessCell(t, b, mgr)
			})
		}
	}
}

// livenessGrain makes every 8th open yield, so the eight threads overlap
// at fine grain and the adversary's faults land inside live conflicts on
// any core count, one core included.
const livenessGrain = 8

func livenessCell(t *testing.T, benchmark, manager string) {
	const threads = 8
	o := Options{Seed: 7}.withDefaults()
	w, err := NewWorkload(benchmark, o.throughputMix(), o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := o.Config(manager, threads, o.Seed).NewManager()
	if err != nil {
		t.Fatal(err)
	}
	adv := newAdversary(threads, o.Seed)
	rt := stm.New(threads, flipper{mgr, adv},
		stm.WithFallback(64, 250*time.Millisecond), stm.WithProbe(adv))
	rt.SetYieldEvery(livenessGrain)
	wd := rt.StartWatchdog(5 * time.Millisecond)
	w.Setup(rt.Thread(0))
	adv.armed.Store(true)

	var stop atomic.Bool
	var commits atomic.Int64
	var wg sync.WaitGroup
	for i := range threads {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			tx := w.NewRunner(i, o.Seed+uint64(i)*7919)
			for !stop.Load() {
				tx(th)
				commits.Add(1)
			}
		}(rt.Thread(i))
	}
	time.Sleep(30 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	wd.Stop()

	if commits.Load() == 0 {
		t.Error("no transactions committed under fault injection")
	}
	if adv.faults.Load() == 0 {
		t.Error("the adversary injected no faults")
	}
	if !wd.Quiescent() {
		t.Error("not quiescent after join: a transaction is permanently stuck")
	}
	if err := w.Verify(); err != nil {
		t.Errorf("verification failed: %v", err)
	}
}
