package stm_test

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

func runtimeWith(t testing.TB, name string, m int, opts ...stm.Option) *stm.Runtime {
	t.Helper()
	mgr, err := cm.New(name, m)
	if err != nil {
		t.Fatalf("cm.New(%q): %v", name, err)
	}
	return stm.New(m, mgr, opts...)
}

func TestSingleThreadReadWrite(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(41)
	info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
		got := stm.Read(tx, v)
		stm.Write(tx, v, got+1)
		if rb := stm.Read(tx, v); rb != got+1 {
			t.Errorf("read-own-write: got %d, want %d", rb, got+1)
		}
	})
	if got := v.Peek(); got != 42 {
		t.Errorf("after commit: got %d, want 42", got)
	}
	if info.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", info.Attempts)
	}
	if info.Aborts() != 0 {
		t.Errorf("aborts = %d, want 0", info.Aborts())
	}
}

func TestZeroTVarUsable(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	var v stm.TVar[string]
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		if got := stm.Read(tx, &v); got != "" {
			t.Errorf("zero TVar read %q, want empty", got)
		}
		stm.Write(tx, &v, "hello")
	})
	if got := v.Peek(); got != "hello" {
		t.Errorf("got %q, want hello", got)
	}
}

func TestPeekSet(t *testing.T) {
	v := stm.NewTVar(7)
	if got := v.Peek(); got != 7 {
		t.Fatalf("Peek = %d, want 7", got)
	}
	v.Set(9)
	if got := v.Peek(); got != 9 {
		t.Fatalf("Peek after Set = %d, want 9", got)
	}
}

func TestModify(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(10)
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Modify(tx, v, func(x int) int { return x * 3 })
	})
	if got := v.Peek(); got != 30 {
		t.Errorf("got %d, want 30", got)
	}
}

func TestAbortedWritesDiscarded(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(1)
	aborted := false
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, 99)
		if !aborted {
			aborted = true
			tx.Abort() // simulate a remote abort mid-flight
		}
		stm.Write(tx, v, 100) // detects abort on second attempt path only
	})
	if got := v.Peek(); got != 100 {
		t.Errorf("got %d, want 100 (second attempt's value)", got)
	}
}

// TestAtomicCounter checks that concurrent increments are never lost.
func TestAtomicCounter(t *testing.T) {
	for _, name := range []string{"backoff", "polka", "greedy", "priority", "timestamp"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const m, perThread = 8, 200
			rt := runtimeWith(t, name, m)
			v := stm.NewTVar(0)
			var wg sync.WaitGroup
			for i := 0; i < m; i++ {
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
			wg.Wait()
			if got := v.Peek(); got != m*perThread {
				t.Errorf("counter = %d, want %d", got, m*perThread)
			}
		})
	}
}

// TestBankInvariant runs random transfers between accounts and checks the
// total is conserved — the classic atomicity test.
func TestBankInvariant(t *testing.T) {
	const m, accounts, perThread, initial = 6, 16, 300, 1000
	rt := runtimeWith(t, "polka", m)
	vars := make([]*stm.TVar[int], accounts)
	for i := range vars {
		vars[i] = stm.NewTVar(initial)
	}
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(id int, th *stm.Thread) {
			defer wg.Done()
			seed := uint64(id)*2654435761 + 12345
			next := func(n int) int {
				seed = seed*6364136223846793005 + 1442695040888963407
				return int((seed >> 33) % uint64(n))
			}
			for j := 0; j < perThread; j++ {
				from := next(accounts)
				to := (from + 1 + next(accounts-1)) % accounts // always distinct
				amt := next(50)
				th.Atomic(func(tx *stm.Tx) {
					f := stm.Read(tx, vars[from])
					g := stm.Read(tx, vars[to])
					stm.Write(tx, vars[from], f-amt)
					stm.Write(tx, vars[to], g+amt)
				})
			}
		}(i, rt.Thread(i))
	}
	wg.Wait()
	total := 0
	for _, v := range vars {
		total += v.Peek()
	}
	if total != accounts*initial {
		t.Errorf("total = %d, want %d (money not conserved)", total, accounts*initial)
	}
}

// TestSnapshotConsistency keeps two variables equal under writers and
// checks that readers never observe them differing — an opacity smoke test
// (doomed transactions must not see mixed states either; a violation here
// would typically surface as a failed equality inside a committed read).
func TestSnapshotConsistency(t *testing.T) {
	const m = 4
	rt := runtimeWith(t, "polka", m)
	a, b := stm.NewTVar(0), stm.NewTVar(0)
	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	// Writers keep a == b.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for n := 1; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				th.Atomic(func(tx *stm.Tx) {
					x := stm.Read(tx, a)
					stm.Write(tx, a, x+1)
					stm.Write(tx, b, x+1)
				})
			}
		}(rt.Thread(i))
	}
	// Readers check a == b inside transactions.
	for i := 2; i < m; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				th.Atomic(func(tx *stm.Tx) {
					x := stm.Read(tx, a)
					y := stm.Read(tx, b)
					if x != y {
						bad.Add(1)
					}
				})
			}
		}(rt.Thread(i))
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Errorf("observed %d inconsistent snapshots", n)
	}
	if av, bv := a.Peek(), b.Peek(); av != bv {
		t.Errorf("final state inconsistent: a=%d b=%d", av, bv)
	}
}

// TestDescIDsUniqueAndIncreasing: transaction IDs are computed from
// thread-local values (no shared counter), and must still be what every
// tie-break and label assumes — unique across the runtime's threads,
// non-zero, and strictly increasing along each thread.
func TestDescIDsUniqueAndIncreasing(t *testing.T) {
	const m, per = 3, 200
	rt := runtimeWith(t, "polka", m)
	ids := make([][]uint64, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int, th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				var id uint64
				th.Atomic(func(tx *stm.Tx) { id = tx.D.ID.Load() })
				ids[i] = append(ids[i], id)
			}
		}(i, rt.Thread(i))
	}
	wg.Wait()
	seen := make(map[uint64]bool, m*per)
	for i, list := range ids {
		for j, id := range list {
			if id == 0 {
				t.Fatalf("thread %d issued ID 0", i)
			}
			if j > 0 && id <= list[j-1] {
				t.Fatalf("thread %d: ID %d after %d", i, id, list[j-1])
			}
			if seen[id] {
				t.Fatalf("ID %d issued twice", id)
			}
			seen[id] = true
		}
	}
}

func TestTxInfoCountsAborts(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(0)
	tries := 0
	info := rt.Thread(0).Atomic(func(tx *stm.Tx) {
		tries++
		stm.Write(tx, v, tries)
		if tries < 3 {
			tx.Abort()
			stm.Read(tx, v) // next open notices the abort and unwinds
			t.Error("read after self-abort should have unwound")
		}
	})
	if info.Attempts != 3 || info.Aborts() != 2 {
		t.Errorf("info = %+v, want 3 attempts / 2 aborts", info)
	}
	if info.Duration < info.CommitDur {
		t.Errorf("duration %v < commit duration %v", info.Duration, info.CommitDur)
	}
}

// TestFirstAttemptCommitDur: a transaction that commits on its first
// attempt spends its whole response time in that attempt, so CommitDur and
// Duration are the same reading and nothing is wasted.
func TestFirstAttemptCommitDur(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	v := stm.NewTVar(0)
	for i := 0; i < 100; i++ {
		info := rt.Thread(0).Atomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
		if info.Attempts != 1 || info.Wasted != 0 || info.CommitDur != info.Duration {
			t.Fatalf("info = %+v, want 1 attempt, no waste, CommitDur == Duration", info)
		}
	}
}

// TestUntimedRuntime: on an untimed runtime TxInfo's durations and
// AttemptStart read 0, Birth is the runtime tick — fixed across a
// transaction's attempts, shared by transactions born within one tick, and
// moved on by an abort a tick after the last move.
func TestUntimedRuntime(t *testing.T) {
	rt := stm.New(1, starver{}, stm.WithoutTxTiming())
	th := rt.Thread(0)
	v := stm.NewTVar(0)
	var births []int64
	run := func(abortFirst bool) stm.TxInfo {
		return th.Atomic(func(tx *stm.Tx) {
			births = append(births, tx.D.Birth.Load())
			if tx.D.AttemptStart != 0 {
				t.Errorf("AttemptStart = %d on an untimed runtime", tx.D.AttemptStart)
			}
			if abortFirst && tx.D.Attempts == 1 {
				tx.Abort()
			}
			stm.Write(tx, v, stm.Read(tx, v)+1)
		})
	}
	for _, abortFirst := range []bool{false, false} {
		if info := run(abortFirst); info != (stm.TxInfo{Attempts: 1}) {
			t.Errorf("info = %+v, want one attempt and no durations", info)
		}
	}
	if births[0] != births[1] {
		t.Errorf("births %d, %d differ with no abort between them", births[0], births[1])
	}
	time.Sleep(2 * time.Millisecond)
	if info := run(true); info != (stm.TxInfo{Attempts: 2}) {
		t.Errorf("info = %+v, want two attempts and no durations", info)
	}
	if births[2] != births[3] {
		t.Errorf("birth moved from %d to %d across one transaction's attempts", births[2], births[3])
	}
	run(false)
	if births[4] <= births[3] {
		t.Errorf("birth after an abort a tick later = %d, want > %d", births[4], births[3])
	}
}

// TestRuntimeCountsOutcomes: the runtime's own counters are exact — two
// threads racing on one TVar under a manager that always aborts the enemy
// commit 2N transactions, and every aborted attempt any of them reported in
// its TxInfo is counted once by Runtime.Aborts.
func TestRuntimeCountsOutcomes(t *testing.T) {
	const threads, n = 2, 2000
	rt := stm.New(threads, abortEnemy{})
	rt.SetYieldEvery(1)
	v := stm.NewTVar(0)
	var aborts [threads]int64
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := rt.Thread(i)
			for j := 0; j < n; j++ {
				info := th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, v, stm.Read(tx, v)+1)
				})
				aborts[i] += int64(info.Aborts())
			}
		}(i)
	}
	wg.Wait()
	if got := v.Peek(); got != threads*n {
		t.Fatalf("counter = %d, want %d", got, threads*n)
	}
	if got := rt.Commits(); got != threads*n {
		t.Errorf("rt.Commits() = %d, want %d", got, threads*n)
	}
	if got, want := rt.Aborts(), aborts[0]+aborts[1]; got != want {
		t.Errorf("rt.Aborts() = %d, want the TxInfo sum %d", got, want)
	}
}

// nopProbe is a Probe base with empty hooks.
type nopProbe struct{}

func (nopProbe) OnBegin(*stm.Tx)                                                                  {}
func (nopProbe) OnOpen(*stm.Tx)                                                                   {}
func (nopProbe) OnAcquire(*stm.Tx)                                                                {}
func (nopProbe) OnCommit(*stm.Tx)                                                                 {}
func (nopProbe) OnAbort(*stm.Tx)                                                                  {}
func (nopProbe) OnResolve(*stm.Tx, *stm.Tx, uint64, int64, stm.Kind, stm.Decision, time.Duration) {}

// verdictTally counts the decisions OnResolve shows it, per thread (the
// hook runs on the attacker's thread, so each row has one writer).
type verdictTally struct {
	nopProbe
	rows []stm.Verdicts
}

func (p *verdictTally) OnResolve(tx, _ *stm.Tx, _ uint64, _ int64, _ stm.Kind, dec stm.Decision, wait time.Duration) {
	r := &p.rows[tx.D.ThreadID]
	switch dec {
	case stm.AbortEnemy:
		r.AbortEnemy++
	case stm.AbortSelf:
		r.AbortSelf++
		r.RestartNs += int64(wait)
	case stm.Wait:
		r.Wait++
		r.WaitNs += int64(wait)
	}
}

// rotatingCM answers conflicts with Wait, AbortSelf (carrying a restart
// delay) and AbortEnemy in turn, runtime-wide.
type rotatingCM struct {
	stm.NopManager
	n atomic.Uint64
}

func (m *rotatingCM) Resolve(_, _ *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	switch m.n.Add(1) % 3 {
	case 0:
		return stm.Wait, 3 * time.Microsecond
	case 1:
		return stm.AbortSelf, 2 * time.Microsecond
	}
	return stm.AbortEnemy, 0
}

// TestRuntimeCountsVerdicts: Runtime.Verdicts counts every executed
// decision, the carried restart delays and the time waited exactly as
// OnResolve sees them, on a contended two-thread runtime whose manager
// uses all three decisions. Conflicts are up to the scheduler, so the
// threads run rounds of n transactions each until every decision has
// appeared, at most maxRounds.
func TestRuntimeCountsVerdicts(t *testing.T) {
	const threads, n, maxRounds = 2, 1000, 20
	probe := &verdictTally{rows: make([]stm.Verdicts, threads)}
	rt := stm.New(threads, &rotatingCM{}, stm.WithProbe(probe))
	rt.SetYieldEvery(1)
	v := stm.NewTVar(0)
	var want stm.Verdicts
	rounds := 0
	for want.AbortEnemy == 0 || want.AbortSelf == 0 || want.Wait == 0 {
		if rounds == maxRounds {
			t.Fatalf("tally %+v after %d rounds: the runs exercised too few conflicts to check every decision", want, rounds)
		}
		rounds++
		var wg sync.WaitGroup
		for i := 0; i < threads; i++ {
			wg.Add(1)
			go func(th *stm.Thread) {
				defer wg.Done()
				for j := 0; j < n; j++ {
					th.Atomic(func(tx *stm.Tx) {
						stm.Write(tx, v, stm.Read(tx, v)+1)
					})
				}
			}(rt.Thread(i))
		}
		wg.Wait()
		want = stm.Verdicts{}
		for _, r := range probe.rows {
			want.AbortEnemy += r.AbortEnemy
			want.AbortSelf += r.AbortSelf
			want.Wait += r.Wait
			want.WaitNs += r.WaitNs
			want.RestartNs += r.RestartNs
		}
	}
	if got := v.Peek(); got != rounds*threads*n {
		t.Fatalf("counter = %d, want %d", got, rounds*threads*n)
	}
	if got := rt.Verdicts(); got != want {
		t.Errorf("rt.Verdicts() = %+v, want the probe's tally %+v", got, want)
	}
}

// restartOnceCM answers the first conflict with AbortSelf carrying span and
// every later one with a short Wait.
type restartOnceCM struct {
	stm.NopManager
	span    time.Duration
	first   sync.Once
	onFirst func()
}

func (m *restartOnceCM) Resolve(_, _ *stm.Tx, _ stm.Kind, _ int) (stm.Decision, time.Duration) {
	dec, wait := stm.Wait, time.Microsecond
	m.first.Do(func() {
		dec, wait = stm.AbortSelf, m.span
		m.onFirst()
	})
	return dec, wait
}

// TestAbortSelfDelaysRestart: the span an AbortSelf verdict carries is a
// restart delay the runtime waits out after rollback, between attempts —
// outside both the aborted attempt (Wasted) and the committed one
// (CommitDur) — and Verdicts.RestartNs counts it. Thread A owns v and
// blocks; B's write meets A, the manager answers AbortSelf once and lets A
// commit.
func TestAbortSelfDelaysRestart(t *testing.T) {
	const span = 200 * time.Microsecond
	owned, release := make(chan struct{}), make(chan struct{})
	mgr := &restartOnceCM{span: span, onFirst: func() { close(release) }}
	rt := stm.New(2, mgr)
	v := stm.NewTVar(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Thread(0).Atomic(func(tx *stm.Tx) {
			stm.Write(tx, v, 1)
			close(owned)
			<-release
		})
	}()
	<-owned
	info := rt.Thread(1).Atomic(func(tx *stm.Tx) {
		stm.Write(tx, v, stm.Read(tx, v)+10)
	})
	<-done
	if info.Attempts < 2 {
		t.Fatalf("B committed in %d attempt(s), want a restart", info.Attempts)
	}
	if gap := info.Duration - info.Wasted - info.CommitDur; gap < span {
		t.Errorf("inter-attempt time = %v, want at least the %v restart delay", gap, span)
	}
	if got := rt.Verdicts().RestartNs; got != int64(span) {
		t.Errorf("Verdicts().RestartNs = %v, want %v", time.Duration(got), span)
	}
	if got := v.Peek(); got != 11 {
		t.Errorf("v = %d, want 11", got)
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

// outcomeLog records every outcome hook with its attempt (one thread).
type outcomeLog struct {
	nopProbe
	seen []outcome
}

type outcome struct {
	seq, attempt int
	committed    bool
}

func (p *outcomeLog) OnCommit(tx *stm.Tx) {
	p.seen = append(p.seen, outcome{tx.D.Seq, tx.D.Attempts, true})
}

func (p *outcomeLog) OnAbort(tx *stm.Tx) {
	p.seen = append(p.seen, outcome{tx.D.Seq, tx.D.Attempts, false})
}

// TestProbeSeesOneOutcomePerAttempt: an attempt that loses its status CAS
// to an abort landing at its commit point fires OnAbort and never
// OnCommit, and is retried and counted as one abort; the attempt that
// commits fires OnCommit once. One thread, so every count is exact.
func TestProbeSeesOneOutcomePerAttempt(t *testing.T) {
	const txs, doomed = 50, 2
	probe := &outcomeLog{}
	rt := stm.New(1, abortEnemy{}, stm.WithProbe(probe))
	v := stm.NewTVar(0)
	for i := 0; i < txs; i++ {
		info := rt.Thread(0).Atomic(func(x *stm.Tx) {
			x.AddSemantic(commitPointAborter{doomed: doomed})
			stm.Write(x, v, stm.Read(x, v)+1)
		})
		if info.Attempts != doomed+1 {
			t.Fatalf("attempts = %d, want %d", info.Attempts, doomed+1)
		}
	}
	if got := v.Peek(); got != txs {
		t.Fatalf("counter = %d, want %d", got, txs)
	}
	if got := rt.Aborts(); got != txs*doomed {
		t.Errorf("rt.Aborts() = %d, want %d", got, txs*doomed)
	}
	if got := rt.Commits(); got != txs {
		t.Errorf("rt.Commits() = %d, want %d", got, txs)
	}
	var want []outcome
	for seq := 0; seq < txs; seq++ {
		for a := 1; a <= doomed+1; a++ {
			want = append(want, outcome{seq, a, a > doomed})
		}
	}
	if !slices.Equal(probe.seen, want) {
		t.Errorf("outcome hooks = %v, want one per attempt: %v", probe.seen, want)
	}
}

func TestRemoteAbortOnlyHitsActiveAttempt(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	var captured *stm.Tx
	rt.Thread(0).Atomic(func(tx *stm.Tx) { captured = tx })
	if captured.Status() != stm.Committed {
		t.Fatalf("status = %v, want committed", captured.Status())
	}
	if captured.Abort() {
		t.Error("Abort succeeded on a committed attempt")
	}
	if captured.Status() != stm.Committed {
		t.Errorf("status changed to %v", captured.Status())
	}
}

func TestStatusAndKindStrings(t *testing.T) {
	cases := map[string]string{
		stm.Active.String():     "active",
		stm.Committed.String():  "committed",
		stm.Aborted.String():    "aborted",
		stm.Status(99).String(): "invalid",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
	if stm.WriteWrite.String() != "write-write" || stm.WriteRead.String() != "write-read" || stm.ReadWrite.String() != "read-write" {
		t.Error("Kind strings wrong")
	}
	if stm.Kind(9).String() != "invalid" {
		t.Error("invalid Kind string wrong")
	}
	if stm.AbortEnemy.String() != "abort-enemy" || stm.AbortSelf.String() != "abort-self" || stm.Wait.String() != "wait" {
		t.Error("Decision strings wrong")
	}
	if stm.Decision(9).String() != "invalid" {
		t.Error("invalid Decision string wrong")
	}
}

func TestRuntimeAccessors(t *testing.T) {
	mgr, _ := cm.New("greedy", 3)
	rt := stm.New(3, mgr)
	if rt.Threads() != 3 {
		t.Errorf("Threads = %d, want 3", rt.Threads())
	}
	if rt.Manager() != mgr {
		t.Error("Manager() did not return the installed manager")
	}
	for i := 0; i < 3; i++ {
		if rt.Thread(i).ID() != i {
			t.Errorf("thread %d has ID %d", i, rt.Thread(i).ID())
		}
		if rt.Thread(i).Runtime() != rt {
			t.Error("thread Runtime() mismatch")
		}
	}
}

func TestNewPanicsOnZeroThreads(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, ...) did not panic")
		}
	}()
	stm.New(0, cm.NewPolka())
}

func TestUserPanicPropagates(t *testing.T) {
	rt := runtimeWith(t, "polka", 1)
	defer func() {
		if r := recover(); r != "user panic" {
			t.Errorf("recovered %v, want user panic", r)
		}
	}()
	rt.Thread(0).Atomic(func(tx *stm.Tx) { panic("user panic") })
}

// TestDescFieldsStable checks the identity fields a CM depends on. The
// descriptor storage is recycled across a thread's transactions (the
// zero-allocation attempt loop), so the fields are captured as values
// inside each transaction — the per-transaction identity, not the pointer,
// is what must be stable.
func TestDescFieldsStable(t *testing.T) {
	rt := runtimeWith(t, "polka", 2)
	type snap struct {
		threadID int
		seq      int
		id       uint64
		birth    int64
	}
	var s0, s1 snap
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		s0 = snap{tx.D.ThreadID, tx.D.Seq, tx.D.ID.Load(), tx.D.Birth.Load()}
	})
	rt.Thread(0).Atomic(func(tx *stm.Tx) {
		s1 = snap{tx.D.ThreadID, tx.D.Seq, tx.D.ID.Load(), tx.D.Birth.Load()}
	})
	if s0.threadID != 0 || s1.threadID != 0 {
		t.Errorf("thread IDs = %d,%d, want 0,0", s0.threadID, s1.threadID)
	}
	if s0.seq != 0 || s1.seq != 1 {
		t.Errorf("seqs = %d,%d, want 0,1", s0.seq, s1.seq)
	}
	if s0.id == s1.id {
		t.Error("descriptor IDs not unique")
	}
	if s0.birth > s1.birth {
		t.Error("births not monotone within a thread")
	}
}

// TestWriteSkew documents that this STM (visible reads, eager acquire)
// forbids write skew: two transactions reading each other's write targets
// conflict and serialize.
func TestWriteSkew(t *testing.T) {
	const iters = 200
	rt := runtimeWith(t, "polka", 2)
	for i := 0; i < iters; i++ {
		a, b := stm.NewTVar(1), stm.NewTVar(1)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rt.Thread(0).Atomic(func(tx *stm.Tx) {
				if stm.Read(tx, a)+stm.Read(tx, b) >= 2 {
					stm.Write(tx, a, 0)
				}
			})
		}()
		go func() {
			defer wg.Done()
			rt.Thread(1).Atomic(func(tx *stm.Tx) {
				if stm.Read(tx, a)+stm.Read(tx, b) >= 2 {
					stm.Write(tx, b, 0)
				}
			})
		}()
		wg.Wait()
		if a.Peek()+b.Peek() == 0 {
			t.Fatalf("write skew: both decremented at iteration %d", i)
		}
	}
}
