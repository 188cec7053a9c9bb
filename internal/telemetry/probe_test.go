package telemetry_test

import (
	"sync"
	"testing"
	"time"

	"wincm/internal/stm"
	"wincm/internal/telemetry"
)

func fakeTx(thread int, id uint64, attempt int) *stm.Tx {
	d := &stm.Desc{ThreadID: thread, Attempts: attempt}
	d.ID.Store(id)
	return &stm.Tx{D: d}
}

func TestProbeHooks(t *testing.T) {
	r := telemetry.NewRegistry()
	p := telemetry.NewProbe(r, 2)
	tx, enemy := fakeTx(0, 1, 1), fakeTx(1, 2, 1)
	// No per-open hooks: opens fold in at attempt end, and the runtime must
	// not dispatch to this probe per open.
	if _, ok := stm.Probe(p).(stm.OpenProbe); ok {
		t.Error("telemetry.Probe implements stm.OpenProbe; long traversals would pay per open")
	}
	p.OnCommit(tx)
	p.OnAbort(tx)               // same attempt as OnCommit: no double fold
	p.OnAbort(fakeTx(0, 1, 2))  // next attempt of the same transaction
	p.OnCommit(fakeTx(0, 1, 3)) // and its eventual commit

	p.OnResolve(tx, enemy, stm.WriteWrite, stm.AbortEnemy, 0)
	p.OnResolve(tx, enemy, stm.WriteWrite, stm.AbortSelf, 0)
	p.OnResolve(tx, enemy, stm.WriteWrite, stm.Wait, 5*time.Microsecond)

	s := r.Snapshot()
	want := map[string]int64{
		"wincm_resolve_abort_enemy_total": 1,
		"wincm_resolve_abort_self_total":  1,
		"wincm_resolve_wait_total":        1,
	}
	for name, v := range want {
		if s.Counters[name] != v {
			t.Errorf("%s = %d, want %d", name, s.Counters[name], v)
		}
	}
	h := s.Histograms["wincm_cm_wait_ns"]
	if h.Count != 1 || h.Sum != int64(5*time.Microsecond) {
		t.Errorf("wait histogram = %+v", h)
	}
}

// TestProbeOnLiveRuntime installs the probe on a real contended STM run
// and checks the counters are consistent with the workload; run with
// -race this also proves the hot path records race-free.
func TestProbeOnLiveRuntime(t *testing.T) {
	r := telemetry.NewRegistry()
	p := telemetry.NewProbe(r, 4)
	tx := telemetry.NewTxStats(r, 4)
	rt := stm.New(4, aggressiveCM{}, stm.WithProbe(p))
	rt.SetYieldEvery(2)
	v := stm.NewTVar(0)
	const threads, per = 4, 200
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int, th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				info := th.Atomic(func(x *stm.Tx) {
					stm.Write(x, v, stm.Read(x, v)+1)
				})
				tx.RecordTx(id, info)
			}
		}(i, rt.Thread(i))
	}
	wg.Wait()
	if got := v.Peek(); got != threads*per {
		t.Fatalf("counter = %d", got)
	}
	s := r.Snapshot()
	if s.Counters["wincm_commits_total"] != threads*per {
		t.Errorf("commits = %d, want %d", s.Counters["wincm_commits_total"], threads*per)
	}
	// Every attempt performs one Read and one Write open, so the folded
	// tally is at least two opens and one acquire per committed attempt.
	if s.Counters["wincm_opens_total"] < 2*threads*per {
		t.Errorf("opens = %d, want >= %d", s.Counters["wincm_opens_total"], 2*threads*per)
	}
	if s.Counters["wincm_acquires_total"] < threads*per {
		t.Errorf("acquires = %d, want >= %d", s.Counters["wincm_acquires_total"], threads*per)
	}
	// The runtime and TxStats count the same aborted attempts.
	if got := rt.Aborts(); got != s.Counters["wincm_aborts_total"] {
		t.Errorf("rt.Aborts() = %d, txstats aborts %d", got, s.Counters["wincm_aborts_total"])
	}
	if h := s.Histograms["wincm_tx_attempts"]; h.Count != threads*per {
		t.Errorf("attempts histogram count = %d", h.Count)
	}
}

// commitAborter aborts the attempt from inside OnCommit for the first
// `doomed` attempts of every transaction — what a remote abort landing
// between OnCommit and the status CAS looks like, made deterministic.
type commitAborter struct{ doomed int }

func (commitAborter) OnBegin(*stm.Tx) {}
func (commitAborter) OnAbort(*stm.Tx) {}
func (c commitAborter) OnCommit(tx *stm.Tx) {
	if tx.D.Attempts <= c.doomed {
		tx.Abort()
	}
}
func (commitAborter) OnResolve(_, _ *stm.Tx, _ stm.Kind, _ stm.Decision, _ time.Duration) {}

// TestProbeCommitThenAbortFoldedOnce exercises the commit-then-abort
// dedup path: an attempt aborted after its OnCommit fired gets OnAbort
// too, and must still be folded exactly once. One thread, so every count
// is exact: each transaction makes doomed+1 attempts of two opens each.
func TestProbeCommitThenAbortFoldedOnce(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		const txs, doomed = 50, 2
		r := telemetry.NewRegistry()
		p := telemetry.NewProbe(r, 1)
		chain := stm.CombineProbes(commitAborter{doomed: doomed}, p)
		rt := stm.New(1, aggressiveCM{}, stm.WithProbe(chain))
		v := stm.NewTVar(0)
		for i := 0; i < txs; i++ {
			info := rt.Thread(0).Atomic(func(x *stm.Tx) {
				stm.Write(x, v, stm.Read(x, v)+1)
			})
			if info.Attempts != doomed+1 {
				t.Fatalf("attempts = %d, want %d", info.Attempts, doomed+1)
			}
		}
		if got := v.Peek(); got != txs {
			t.Fatalf("counter = %d, want %d", got, txs)
		}
		s := r.Snapshot()
		if got, want := s.Counters["wincm_opens_total"], int64(2*txs*(doomed+1)); got != want {
			t.Errorf("wincm_opens_total = %d, want %d", got, want)
		}
	})
}

// aggressiveCM always aborts the enemy — the simplest correct manager.
type aggressiveCM struct{}

func (aggressiveCM) Begin(*stm.Tx)     {}
func (aggressiveCM) Committed(*stm.Tx) {}
func (aggressiveCM) Aborted(*stm.Tx)   {}
func (aggressiveCM) Opened(*stm.Tx)    {}
func (aggressiveCM) Resolve(_, _ *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	return stm.AbortEnemy, 0
}
