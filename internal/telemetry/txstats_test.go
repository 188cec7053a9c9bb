package telemetry_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"wincm/internal/stm"
	"wincm/internal/telemetry"
)

func info(attempts int, wasted, dur, commitDur time.Duration) stm.TxInfo {
	return stm.TxInfo{Attempts: attempts, Wasted: wasted, Duration: dur, CommitDur: commitDur}
}

// summarize records each shard's transactions into a fresh TxStats and
// returns the summary view of the registry's snapshot.
func summarize(wall time.Duration, shards ...[]stm.TxInfo) telemetry.Summary {
	reg := telemetry.NewRegistry()
	tx := telemetry.NewTxStats(reg, len(shards))
	for shard, infos := range shards {
		for _, in := range infos {
			tx.RecordTx(shard, in)
		}
	}
	return reg.Snapshot().Summary(len(shards), wall)
}

// refThread is the per-thread accumulator the harness recorded into before
// TxStats became the only recorder (internal/metrics.Thread, verbatim); the
// snapshot view is checked against it field for field.
type refThread struct {
	commits, aborts, repeatAborts       int64
	wasted, busy, respSum, commitDurSum time.Duration
	maxAttempts                         int
}

func (t *refThread) record(info stm.TxInfo) {
	t.commits++
	t.aborts += int64(info.Aborts())
	if a := info.Aborts(); a > 1 {
		t.repeatAborts += int64(a - 1)
	}
	t.wasted += info.Wasted
	t.busy += info.Duration
	t.respSum += info.Duration
	t.commitDurSum += info.CommitDur
	if info.Attempts > t.maxAttempts {
		t.maxAttempts = info.Attempts
	}
}

// TestSummaryEqualsPerThreadAggregate: a fixed TxInfo sequence over three
// shards reads back from the snapshot exactly as the per-thread aggregate
// computed it — counts, times, the exact worst attempt count (17 sits in
// the [16,31] bucket; the bucket bound would say 31) and both means.
func TestSummaryEqualsPerThreadAggregate(t *testing.T) {
	shards := [][]stm.TxInfo{
		{
			info(4, 3*time.Millisecond, 5*time.Millisecond, time.Millisecond),
			info(2, time.Millisecond, 3*time.Millisecond, time.Millisecond),
		},
		{
			info(17, 40*time.Millisecond, 45*time.Millisecond, 2*time.Millisecond),
		},
		{
			info(1, 0, 700*time.Microsecond, 700*time.Microsecond),
			info(9, 6*time.Millisecond, 8*time.Millisecond+3, time.Millisecond),
			info(3, 0, time.Millisecond, time.Millisecond),
		},
	}
	var want refThread // Aggregate summed the threads and took the worst MaxAttempts
	for _, infos := range shards {
		for _, in := range infos {
			want.record(in)
		}
	}
	s := summarize(2*time.Second, shards...)

	if s.Threads != 3 || s.Wall != 2*time.Second {
		t.Errorf("shape = %d threads over %v", s.Threads, s.Wall)
	}
	if s.Commits != want.commits || s.Aborts != want.aborts || s.RepeatAborts != want.repeatAborts {
		t.Errorf("counts = %d/%d/%d, want %d/%d/%d", s.Commits, s.Aborts, s.RepeatAborts,
			want.commits, want.aborts, want.repeatAborts)
	}
	if s.Wasted != want.wasted || s.Busy != want.busy {
		t.Errorf("times: Wasted=%v Busy=%v, want %v %v", s.Wasted, s.Busy, want.wasted, want.busy)
	}
	if s.MaxAttempts != want.maxAttempts || s.MaxAttempts != 17 {
		t.Errorf("MaxAttempts = %d, want the exact maximum %d", s.MaxAttempts, want.maxAttempts)
	}
	if got, want := s.MeanResponse(), want.respSum/time.Duration(want.commits); got != want {
		t.Errorf("MeanResponse = %v, want %v", got, want)
	}
	if got, want := s.MeanCommitDur(), want.commitDurSum/time.Duration(want.commits); got != want {
		t.Errorf("MeanCommitDur = %v, want %v", got, want)
	}
}

func TestRecordCountsAbortsAndRepeats(t *testing.T) {
	s := summarize(time.Second, []stm.TxInfo{
		info(1, 0, time.Millisecond, time.Millisecond),
		info(2, time.Millisecond, 3*time.Millisecond, time.Millisecond),
		info(4, 5*time.Millisecond, 8*time.Millisecond, time.Millisecond),
	})
	if s.Commits != 3 {
		t.Errorf("Commits = %d", s.Commits)
	}
	if s.Aborts != 0+1+3 {
		t.Errorf("Aborts = %d", s.Aborts)
	}
	// Repeats: only the 4-attempt transaction retried more than once
	// (3 aborts ⇒ 2 repeats).
	if s.RepeatAborts != 2 {
		t.Errorf("RepeatAborts = %d", s.RepeatAborts)
	}
	if s.Wasted != 6*time.Millisecond {
		t.Errorf("Wasted = %v", s.Wasted)
	}
	// Busy is the sum of response times (Duration), which includes the
	// inter-attempt overhead on top of Wasted + CommitDur.
	if s.Busy != (1+3+8)*time.Millisecond {
		t.Errorf("Busy = %v", s.Busy)
	}
}

func TestAggregateAndDerivedMetrics(t *testing.T) {
	s := summarize(2*time.Second,
		[]stm.TxInfo{info(2, 2*time.Millisecond, 4*time.Millisecond, 2*time.Millisecond)},
		[]stm.TxInfo{
			info(1, 0, 2*time.Millisecond, 2*time.Millisecond),
			info(1, 0, 2*time.Millisecond, 2*time.Millisecond),
		})
	if s.Threads != 2 || s.Commits != 3 || s.Aborts != 1 {
		t.Errorf("summary = %+v", s)
	}
	if got := s.Throughput(); got != 1.5 {
		t.Errorf("Throughput = %v", got)
	}
	if got := s.AbortsPerCommit(); got != 1.0/3 {
		t.Errorf("AbortsPerCommit = %v", got)
	}
	// Wasted 2ms of busy (= sum of Durations) 4+2+2=8ms.
	if got := s.WastedWork(); got != 0.25 {
		t.Errorf("WastedWork = %v", got)
	}
	if got := s.MeanResponse(); got != (4+2+2)*time.Millisecond/3 {
		t.Errorf("MeanResponse = %v", got)
	}
	if got := s.MeanCommitDur(); got != 2*time.Millisecond {
		t.Errorf("MeanCommitDur = %v", got)
	}
}

func TestZeroValueSummaries(t *testing.T) {
	for _, s := range []telemetry.Summary{{}, telemetry.NewRegistry().Snapshot().Summary(0, 0)} {
		if s.Throughput() != 0 || s.AbortsPerCommit() != 0 || s.WastedWork() != 0 {
			t.Error("zero summary produced nonzero ratios")
		}
		if s.MeanResponse() != 0 || s.MeanCommitDur() != 0 {
			t.Error("zero summary produced nonzero durations")
		}
	}
}

// aggressiveCM always aborts the enemy — the simplest correct manager.
type aggressiveCM struct{ stm.NopManager }

func (aggressiveCM) Resolve(_, _ *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	return stm.AbortEnemy, 0
}

// TestTxStatsOnLiveRuntime records a real contended STM run and checks
// the derived counts against the workload and the runtime's own; run with
// -race this also proves the recording is race-free. Thread 0's first
// attempt holds its write to v until the runtime has decided a conflict,
// and the other threads start only once it holds it, so the run contends
// at any GOMAXPROCS.
func TestTxStatsOnLiveRuntime(t *testing.T) {
	r := telemetry.NewRegistry()
	tx := telemetry.NewTxStats(r, 4)
	rt := stm.New(4, aggressiveCM{})
	v := stm.NewTVar(0)
	const threads, per = 4, 200
	held := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int, th *stm.Thread) {
			defer wg.Done()
			if id > 0 {
				<-held
			}
			for j := 0; j < per; j++ {
				info := th.Atomic(func(x *stm.Tx) {
					stm.Write(x, v, stm.Read(x, v)+1)
					if id == 0 && j == 0 && x.D.Attempts == 1 {
						close(held)
						for rt.Verdicts().AbortEnemy == 0 {
							time.Sleep(50 * time.Microsecond)
						}
					}
				})
				tx.RecordTx(id, info)
			}
		}(i, rt.Thread(i))
	}
	wg.Wait()
	if got := v.Peek(); got != threads*per {
		t.Fatalf("counter = %d", got)
	}
	s := r.Snapshot().Summary(threads, 0)
	if s.Commits != threads*per || rt.Commits() != s.Commits {
		t.Errorf("commits = %d, rt.Commits() = %d, want %d", s.Commits, rt.Commits(), threads*per)
	}
	if s.Aborts == 0 {
		t.Error("no aborted attempt: the run did not contend")
	}
	// The runtime and TxStats count the same aborted attempts.
	if got := rt.Aborts(); got != s.Aborts {
		t.Errorf("rt.Aborts() = %d, txstats aborts %d", got, s.Aborts)
	}
}

// commitPointAborter is a SemanticOps whose Validate aborts the first
// doomed attempts of every transaction and returns true, so the attempt
// goes on to lose its status CAS — what a remote abort landing at the
// commit point looks like, made deterministic.
type commitPointAborter struct{ doomed int }

func (c commitPointAborter) Validate(tx *stm.Tx) bool {
	if tx.D.Attempts <= c.doomed {
		tx.Abort()
	}
	return true
}

func (commitPointAborter) Finalize(*stm.Tx, bool) {}

// TestProbeCommitThenAbortFoldedOnce: an attempt aborted at its commit
// point, after its validation passed, is folded into TxStats exactly once,
// as an abort, and the transaction's eventual commit once. One thread, so
// every count is exact: each transaction makes doomed+1 attempts.
func TestProbeCommitThenAbortFoldedOnce(t *testing.T) {
	t.Run("eager", func(t *testing.T) {
		const txs, doomed = 50, 2
		r := telemetry.NewRegistry()
		stats := telemetry.NewTxStats(r, 1)
		rt := stm.New(1, aggressiveCM{})
		v := stm.NewTVar(0)
		for i := 0; i < txs; i++ {
			info := rt.Thread(0).Atomic(func(x *stm.Tx) {
				x.AddSemantic(commitPointAborter{doomed: doomed})
				stm.Write(x, v, stm.Read(x, v)+1)
			})
			if info.Attempts != doomed+1 {
				t.Fatalf("attempts = %d, want %d", info.Attempts, doomed+1)
			}
			stats.RecordTx(0, info)
		}
		if got := v.Peek(); got != txs {
			t.Fatalf("counter = %d, want %d", got, txs)
		}
		s := r.Snapshot().Summary(1, 0)
		if s.Commits != txs || s.Aborts != txs*doomed || s.RepeatAborts != txs*(doomed-1) {
			t.Errorf("commits/aborts/repeats = %d/%d/%d, want %d/%d/%d",
				s.Commits, s.Aborts, s.RepeatAborts, txs, txs*doomed, txs*(doomed-1))
		}
		if got := rt.Aborts(); got != s.Aborts {
			t.Errorf("rt.Aborts() = %d, txstats aborts %d", got, s.Aborts)
		}
	})
}

// ExampleTxStats records two worker threads' transactions and reads the
// run-level metrics off the snapshot.
func ExampleTxStats() {
	reg := telemetry.NewRegistry()
	tx := telemetry.NewTxStats(reg, 2)
	tx.RecordTx(0, stm.TxInfo{Attempts: 1, Duration: time.Millisecond, CommitDur: time.Millisecond})
	tx.RecordTx(1, stm.TxInfo{Attempts: 3, Wasted: 2 * time.Millisecond, Duration: 4 * time.Millisecond, CommitDur: time.Millisecond})
	s := reg.Snapshot().Summary(2, time.Second)
	fmt.Printf("%.0f commits/s, %.1f aborts/commit\n", s.Throughput(), s.AbortsPerCommit())
	// Output: 2 commits/s, 1.0 aborts/commit
}
