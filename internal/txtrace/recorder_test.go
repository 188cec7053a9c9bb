package txtrace

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"wincm/internal/stm"
)

// abortEnemyCM always kills the enemy — every conflict is an aborting one,
// which makes the abort-attribution arithmetic exact.
type abortEnemyCM struct{ stm.NopManager }

func (abortEnemyCM) Resolve(_, _ *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	return stm.AbortEnemy, 0
}

// waitCM stalls the attacker briefly — exercises the EvWait path.
type waitCM struct{ stm.NopManager }

func (waitCM) Resolve(_, _ *stm.Tx, _ stm.Kind, attempt int) (stm.Decision, time.Duration) {
	if attempt < 3 {
		return stm.Wait, 10 * time.Microsecond
	}
	return stm.AbortEnemy, 0
}

func TestRecorderSamplingSticky(t *testing.T) {
	rec := NewRecorder(1, 4)
	rt := stm.New(1, abortEnemyCM{}, stm.WithProbe(rec))
	v := stm.NewTVar(0)

	const txs = 8
	for i := 0; i < txs; i++ {
		rt.Thread(0).Atomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
	}
	tr := rec.Read()
	counts := tr.Counts()
	// 1-in-4 sampling draws on transactions 1 and 5 (txSeen%4 == 1): two
	// sampled transactions, each one attempt (no contention).
	if counts[EvBegin] != 2 || counts[EvCommit] != 2 {
		t.Errorf("counts = %v, want 2 begins and 2 commits out of %d transactions at 1-in-4", counts, txs)
	}
	// Each sampled transaction opens v twice (read then write upgrade
	// dispatches OnOpen per call) — the point is: no opens leak from
	// unsampled transactions, so opens come only in per-tx multiples.
	if counts[EvOpen] == 0 || counts[EvOpen]%2 != 0 {
		t.Errorf("opens = %d, want a positive multiple of 2 (sampled txs only)", counts[EvOpen])
	}
	if tr.Sample != 4 {
		t.Errorf("Sample = %d, want 4", tr.Sample)
	}
}

// TestRecorderUnsampledZeroAlloc: an armed recorder sampling 1-in-2^30
// leaves every transaction after the first unsampled; those pay one counter
// increment per attempt and must allocate nothing.
func TestRecorderUnsampledZeroAlloc(t *testing.T) {
	rec := NewRecorder(1, 1<<30)
	th := stm.New(1, abortEnemyCM{}, stm.WithProbe(rec)).Thread(0)
	vs := make([]*stm.TVar[int], 16)
	for i := range vs {
		vs[i] = stm.NewTVar(i)
	}
	readAll := func(tx *stm.Tx) {
		for _, v := range vs {
			stm.Read(tx, v)
		}
	}
	th.Atomic(readAll) // the one sampled transaction
	if n := testing.AllocsPerRun(100, func() { th.Atomic(readAll) }); n != 0 {
		t.Errorf("unsampled transaction under an armed recorder allocates %.1f per run, want 0", n)
	}
}

func TestRecorderSampleOneRecordsEverything(t *testing.T) {
	rec := NewRecorder(1, 1)
	rt := stm.New(1, abortEnemyCM{}, stm.WithProbe(rec))
	v := stm.NewTVar(0)
	for i := 0; i < 5; i++ {
		rt.Thread(0).Atomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
	}
	counts := rec.Read().Counts()
	if counts[EvBegin] != 5 || counts[EvCommit] != 5 {
		t.Errorf("counts = %v, want every one of the 5 transactions recorded", counts)
	}
}

// TestRecorderConflictAccounting is the acceptance check: the conflict
// graph built from a recorded run must account for every recorded
// aborting conflict — Σ edge.Aborts == snapshot.Aborts == the count of
// aborting conflict events in the trace.
func TestRecorderConflictAccounting(t *testing.T) {
	const (
		threads = 4
		iters   = 300
	)
	rec := NewRecorder(threads, 1)
	rt := stm.New(threads, abortEnemyCM{}, stm.WithProbe(rec))
	// Yield at every open so the read-modify-writes interleave and conflict
	// on any core count; without it the run often finishes conflict-free and
	// the test skips instead of checking anything.
	rt.SetYieldEvery(1)
	shared := stm.NewTVar(0)

	var wg, ready sync.WaitGroup
	ready.Add(threads)
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th := rt.Thread(ti)
			ready.Done()
			ready.Wait() // nobody starts until everybody runs
			for i := 0; i < iters; i++ {
				th.Atomic(func(tx *stm.Tx) { stm.Write(tx, shared, stm.Read(tx, shared)+1) })
			}
		}(ti)
	}
	wg.Wait()

	if got := rt.Thread(0).Atomic(func(tx *stm.Tx) { _ = stm.Read(tx, shared) }); got.Attempts != 1 {
		t.Fatalf("read-back transaction took %d attempts on a quiet runtime", got.Attempts)
	}

	tr := rec.Read()
	var conflicts, aborting int
	for _, e := range tr.Events {
		if e.Kind == EvConflict {
			conflicts++
			if e.Aborting() {
				aborting++
			}
			if e.Enemy < 0 || int(e.Enemy) >= threads {
				t.Fatalf("conflict with out-of-range enemy thread %d", e.Enemy)
			}
			if e.B == 0 {
				t.Fatal("conflict without a variable token")
			}
		}
	}
	if conflicts == 0 {
		t.Skip("no conflicts observed (single-core scheduling); nothing to verify")
	}
	// AbortEnemy on every conflict: all of them abort someone.
	if aborting != conflicts {
		t.Errorf("aborting = %d, conflicts = %d; abort-enemy CM makes every conflict aborting", aborting, conflicts)
	}

	snap := tr.Conflicts()
	if snap.Conflicts != conflicts || snap.Aborts != aborting {
		t.Errorf("snapshot (%d conflicts, %d aborts) != event scan (%d, %d)",
			snap.Conflicts, snap.Aborts, conflicts, aborting)
	}
	var edgeConflicts, edgeAborts int
	for _, e := range snap.Edges {
		edgeConflicts += e.Count
		edgeAborts += e.Aborts
	}
	if edgeConflicts != conflicts || edgeAborts != aborting {
		t.Errorf("edge sums (%d, %d) do not account for the recorded events (%d, %d)",
			edgeConflicts, edgeAborts, conflicts, aborting)
	}
	if snap.Threads != threads {
		t.Errorf("snapshot threads = %d, want %d", snap.Threads, threads)
	}
	if snap.MaxDegree > threads-1 || snap.MaxDegree != snap.Graph.MaxDegree() {
		t.Errorf("max degree %d inconsistent (graph says %d, %d threads)",
			snap.MaxDegree, snap.Graph.MaxDegree(), threads)
	}

	// Heatmap: the single shared variable must carry the whole attribution.
	heat := tr.Heatmap(1)
	if len(heat) == 0 {
		t.Fatal("heatmap empty despite recorded opens")
	}
	if heat[0].Aborts != aborting {
		t.Errorf("hottest variable attributes %d aborts, want all %d (one shared var)", heat[0].Aborts, aborting)
	}
	if heat[0].Conflicts != conflicts {
		t.Errorf("hottest variable saw %d conflicts, want %d", heat[0].Conflicts, conflicts)
	}

	// Attempt-lifecycle identity on the recorded stream: every attempt
	// begins once and records at most one outcome, so begins can never be
	// fewer than aborts.
	counts := tr.Counts()
	if counts[EvBegin] < counts[EvAbort] {
		t.Errorf("begins %d < aborts %d: lifecycle broken", counts[EvBegin], counts[EvAbort])
	}
}

func TestRecorderWaitEvents(t *testing.T) {
	const threads = 2
	rec := NewRecorder(threads, 1)
	rt := stm.New(threads, waitCM{}, stm.WithProbe(rec))
	rt.SetYieldEvery(1) // interleave the two threads so they overlap on any core count
	shared := stm.NewTVar(0)

	var wg, ready sync.WaitGroup
	ready.Add(threads)
	for ti := 0; ti < threads; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			th := rt.Thread(ti)
			ready.Done()
			ready.Wait() // nobody starts until everybody runs
			for i := 0; i < 200; i++ {
				th.Atomic(func(tx *stm.Tx) { stm.Write(tx, shared, stm.Read(tx, shared)+1) })
			}
		}(ti)
	}
	wg.Wait()

	tr := rec.Read()
	var waits int
	for _, e := range tr.Events {
		if e.Kind == EvWait {
			waits++
			if e.A == 0 {
				t.Error("wait event with zero duration payload")
			}
			if d, ok := e.Decision(); !ok || d != stm.Wait {
				t.Errorf("wait event carries verdict %v", e.Verdict)
			}
		}
	}
	if waits == 0 {
		t.Skip("no waits observed (no overlap); nothing to verify")
	}
	if tr.Heatmap(1)[0].Waits <= 0 {
		t.Error("heatmap did not attribute wait time to the contended variable")
	}
}

// patientCM grants thread 1 a long Wait on thread 0, and lets thread 0
// abort thread 1 should they ever meet the other way round.
type patientCM struct{ stm.NopManager }

const patientSpan = time.Second

func (patientCM) Resolve(tx, enemy *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	if tx.D.ThreadID < enemy.D.ThreadID {
		return stm.AbortEnemy, 0
	}
	return stm.Wait, patientSpan
}

// reportAfterEnemyMovesOn holds every Wait's report until thread 0 has
// begun its second transaction, so by the time the waiter reports, the
// transaction it waited on is over and thread 0's Desc.ID names the next.
type reportAfterEnemyMovesOn struct {
	*Recorder
	moved chan struct{}
}

func (p *reportAfterEnemyMovesOn) OnBegin(tx *stm.Tx) {
	p.Recorder.OnBegin(tx)
	if tx.D.ThreadID == 0 && tx.D.Seq == 1 && tx.D.Attempts == 1 {
		close(p.moved)
	}
}

func (p *reportAfterEnemyMovesOn) OnResolve(tx, enemy *stm.Tx, enemyID uint64, at int64, kind stm.Kind, dec stm.Decision, wait time.Duration) {
	if dec == stm.Wait {
		<-p.moved
	}
	p.Recorder.OnResolve(tx, enemy, enemyID, at, kind, dec, wait)
}

// TestRecorderWaitCutShortByCommit: thread 1 is granted a 1 s Wait on
// thread 0's attempt, parks, and is woken when that attempt commits after
// a 10 ms hold. The recorded EvWait carries the time waited, not the span
// granted, and is stamped at the wait's start, so its box covers the
// enemy's commit; its EvConflict carries the same stamp and names the
// transaction waited on, although thread 0 has begun its next one before
// thread 1 reports.
func TestRecorderWaitCutShortByCommit(t *testing.T) {
	const hold = 10 * time.Millisecond
	rec := NewRecorder(2, 1)
	probe := &reportAfterEnemyMovesOn{Recorder: rec, moved: make(chan struct{})}
	rt := stm.New(2, patientCM{}, stm.WithProbe(probe))
	v := stm.NewTVar(0)
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		first := true
		th := rt.Thread(0)
		th.Atomic(func(tx *stm.Tx) {
			stm.Write(tx, v, stm.Read(tx, v)+1)
			if first {
				first = false
				close(held)
				for rt.Verdicts().Wait == 0 {
					time.Sleep(100 * time.Microsecond)
				}
				time.Sleep(hold)
			}
		})
		th.Atomic(func(*stm.Tx) {})
	}()
	go func() {
		defer wg.Done()
		<-held
		rt.Thread(1).Atomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
	}()
	wg.Wait()

	var conflict, wait, commit *Event
	tr := rec.Read()
	for i := range tr.Events {
		switch e := &tr.Events[i]; {
		case e.Kind == EvConflict && e.Thread == 1 && conflict == nil:
			conflict = e
		case e.Kind == EvWait && e.Thread == 1 && wait == nil:
			wait = e
		case e.Kind == EvCommit && e.Thread == 0 && e.Seq == 0:
			commit = e
		}
	}
	if conflict == nil || wait == nil || commit == nil {
		t.Fatalf("conflict %v, wait %v, enemy commit %v: want all three recorded", conflict, wait, commit)
	}
	if d := time.Duration(wait.A); d <= 0 || d >= patientSpan {
		t.Errorf("EvWait.A = %v, want the time waited, below the %v span", d, patientSpan)
	}
	if wait.TS != conflict.TS {
		t.Errorf("EvWait at %d, its EvConflict at %d: want both at the wait's start", wait.TS, conflict.TS)
	}
	if wait.TS > commit.TS || wait.TS+int64(wait.A) < commit.TS {
		t.Errorf("wait box [%d, %d] does not cover the enemy's commit at %d", wait.TS, wait.TS+int64(wait.A), commit.TS)
	}
	if conflict.A != commit.A {
		t.Errorf("EvConflict.A = %d, want %d, the ID of the enemy transaction waited on", conflict.A, commit.A)
	}
}

// lateWaitReport delays every Wait's report to the recorder by lateReport,
// noting when the report began and the decision time the runtime passed.
type lateWaitReport struct {
	*Recorder
	reported, at int64
}

const lateReport = 2 * time.Millisecond

func (p *lateWaitReport) OnResolve(tx, enemy *stm.Tx, enemyID uint64, at int64, kind stm.Kind, dec stm.Decision, wait time.Duration) {
	if dec == stm.Wait {
		p.reported, p.at = stm.Now(), at
		time.Sleep(lateReport)
	}
	p.Recorder.OnResolve(tx, enemy, enemyID, at, kind, dec, wait)
}

// TestRecorderStampsWaitAtItsStart: thread 1 waits on thread 0's held
// write, and its report reaches the recorder lateReport after the wait
// ended. Its EvConflict and EvWait are still stamped at the wait's start,
// so the wait's box ends before the report began.
func TestRecorderStampsWaitAtItsStart(t *testing.T) {
	rec := NewRecorder(2, 1)
	probe := &lateWaitReport{Recorder: rec}
	rt := stm.New(2, patientCM{}, stm.WithProbe(probe))
	v := stm.NewTVar(0)
	held := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		first := true
		rt.Thread(0).Atomic(func(tx *stm.Tx) {
			stm.Write(tx, v, stm.Read(tx, v)+1)
			if first {
				first = false
				close(held)
				for rt.Verdicts().Wait == 0 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		})
	}()
	go func() {
		defer wg.Done()
		<-held
		rt.Thread(1).Atomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
	}()
	wg.Wait()

	var conflict, wait *Event
	tr := rec.Read()
	for i := range tr.Events {
		switch e := &tr.Events[i]; {
		case e.Kind == EvConflict && e.Thread == 1 && conflict == nil:
			conflict = e
		case e.Kind == EvWait && e.Thread == 1 && wait == nil:
			wait = e
		}
	}
	if conflict == nil || wait == nil {
		t.Fatalf("conflict %v, wait %v: want both recorded", conflict, wait)
	}
	if conflict.TS != probe.at || wait.TS != probe.at {
		t.Errorf("EvConflict at %d, EvWait at %d: want both at the wait's start %d", conflict.TS, wait.TS, probe.at)
	}
	if end := wait.TS + int64(wait.A); end > probe.reported {
		t.Errorf("wait box ends at %d, %v after its report began at %d", end, time.Duration(end-probe.reported), probe.reported)
	}
}

// TestRecorderTracesUntimedRuntime: the recorder reads its own clock, so
// it traces an untimed runtime (the kv shards' kind). Every transaction is
// recorded, and each thread's EvBegin stamps are non-zero and ordered: in
// the time-sorted trace a thread's attempts appear in the order it ran
// them.
func TestRecorderTracesUntimedRuntime(t *testing.T) {
	const threads, txs = 2, 100
	rec := NewRecorder(threads, 1)
	rt := stm.New(threads, abortEnemyCM{}, stm.WithoutTxTiming(), stm.WithProbe(rec))
	v := stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < txs; j++ {
				th.Atomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
			}
		}(rt.Thread(i))
	}
	wg.Wait()

	tr := rec.Read()
	if n := tr.Counts()[EvCommit]; n != threads*txs {
		t.Errorf("%d commits recorded, want %d", n, threads*txs)
	}
	type attempt struct{ seq, n int32 }
	last := make([]attempt, threads)
	for i := range last {
		last[i] = attempt{-1, 0}
	}
	for _, e := range tr.Events {
		if e.Kind != EvBegin {
			continue
		}
		if e.TS == 0 {
			t.Fatalf("thread %d tx %d attempt %d: EvBegin stamped 0", e.Thread, e.Seq, e.Attempt)
		}
		prev, cur := last[e.Thread], attempt{e.Seq, e.Attempt}
		if cur.seq < prev.seq || cur.seq == prev.seq && cur.n <= prev.n {
			t.Fatalf("thread %d: EvBegin of tx %d attempt %d at %d sorts after tx %d attempt %d",
				e.Thread, cur.seq, cur.n, e.TS, prev.seq, prev.n)
		}
		last[e.Thread] = cur
	}
}

func TestRecorderAuxEvents(t *testing.T) {
	rec := NewRecorder(1, 1)

	rec.FrameAdvanced(7)

	evs := rec.Read().Events
	if len(evs) != 1 {
		t.Fatalf("got %d aux events, want 1", len(evs))
	}
	for _, e := range evs {
		if e.Thread != -1 || e.Seq != -1 || e.Attempt != -1 {
			t.Errorf("aux event %v carries a transaction subject", e)
		}
	}
	if evs[0].Kind != EvFrame || evs[0].A != 7 {
		t.Errorf("frame event = %+v", evs[0])
	}
}

// TestRecorderBudgetDropsWholeTransactions plants a budget far too small
// for the run: 3,000 transactions of 3–8 events each (every third one
// retried once) into two chunks. Every transaction the recorder left out
// is counted, and every one it kept is whole — each of its attempts has a
// begin and an outcome, and the last outcome is its commit.
func TestRecorderBudgetDropsWholeTransactions(t *testing.T) {
	const txs, chunks = 3000, 2
	rec := newRecorder(1, 1, chunks*chunkEvents*int(unsafe.Sizeof(Event{})))
	th := stm.New(1, abortEnemyCM{}, stm.WithProbe(rec)).Thread(0)
	vs := make([]*stm.TVar[int], 6)
	for i := range vs {
		vs[i] = stm.NewTVar(i)
	}
	for i := 0; i < txs; i++ {
		th.Atomic(func(tx *stm.Tx) {
			if i%3 == 0 && tx.D.Attempts == 1 {
				tx.Abort() // the next open sees it and retries the transaction
			}
			for _, v := range vs[:i%len(vs)+1] {
				stm.Read(tx, v)
			}
		})
	}
	tr := rec.Read()
	if tr.Unrecorded == 0 {
		t.Fatal("no transaction left out although the run overflows the budget")
	}
	if len(tr.Events) > chunks*chunkEvents {
		t.Errorf("recorded %d events past the %d-event budget", len(tr.Events), chunks*chunkEvents)
	}
	type attempt struct{ begins, outcomes int }
	attempts := map[[2]int32]*attempt{} // (seq, attempt)
	last := map[int32]Kind{}            // seq → its last outcome
	for _, e := range tr.Events {
		k := [2]int32{e.Seq, e.Attempt}
		if attempts[k] == nil {
			attempts[k] = &attempt{}
		}
		switch e.Kind {
		case EvBegin:
			attempts[k].begins++
		case EvCommit, EvAbort:
			attempts[k].outcomes++
			last[e.Seq] = e.Kind
		}
	}
	for k, a := range attempts {
		if a.begins != 1 || a.outcomes != 1 {
			t.Errorf("tx %d attempt %d: %d begins, %d outcomes, want 1 and 1", k[0], k[1], a.begins, a.outcomes)
		}
		if k[1] > 1 && attempts[[2]int32{k[0], k[1] - 1}] == nil {
			t.Errorf("tx %d: attempt %d recorded without attempt %d", k[0], k[1], k[1]-1)
		}
	}
	for seq, kind := range last {
		if kind != EvCommit {
			t.Errorf("tx %d: last outcome %v, want commit", seq, kind)
		}
	}
	if got := uint64(len(last)) + tr.Unrecorded; got != txs {
		t.Errorf("%d recorded + %d unrecorded transactions = %d, want all %d", len(last), tr.Unrecorded, got, txs)
	}
}
