package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"wincm/internal/bench"
	"wincm/internal/stm"
)

// BenchmarkFrameClockCurrent measures the hot-path frame read (taken on
// every conflict resolution).
func BenchmarkFrameClockCurrent(b *testing.B) {
	c := newFrameClock(false, time.Millisecond, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Current()
	}
}

// BenchmarkFrameClockCommit measures the dynamic-mode commit bookkeeping:
// one thread opening a four-frame segment at the clock's live horizon and
// retiring it front to back, the shape a real window schedule produces.
// One op is one retired frame.
func BenchmarkFrameClockCommit(b *testing.B) {
	c := newFrameClock(true, time.Hour, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&3 == 0 {
			c.open(0, c.Current(), 4)
		}
		c.retire(0)
	}
}

// BenchmarkFrameClockCommitParallel hammers one dynamic clock's open/retire
// bookkeeping from 16 goroutines — the worst case, in which every thread is
// inside the window and commits nothing but clock bookkeeping. Conflict-free
// commits stay outside the window and never reach the clock (DESIGN.md §2),
// so no workload puts this shape on it. Each worker opens an
// eight-frame segment at Current() and retires it front to back, mirroring
// how the manager reads the clock once per segment rather than between
// every commit; that keeps the cell measuring the shared bookkeeping
// instead of the fixed-cost monotonic clock read (~36ns on the reference
// machine, identical for any bookkeeping design). One op is one retired
// frame.
func BenchmarkFrameClockCommitParallel(b *testing.B) {
	const workers = 16
	c := newFrameClock(true, time.Hour, workers)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		quota := b.N / workers
		if w < b.N%workers {
			quota++
		}
		wg.Add(1)
		go func(w, quota int) {
			defer wg.Done()
			for i := 0; i < quota; i++ {
				if i&7 == 0 {
					c.open(w, c.Current(), 8)
				}
				c.retire(w)
			}
		}(w, quota)
	}
	wg.Wait()
}

// benchmarkDynamicManagerList runs the paper's sorted-list workload
// end-to-end under Online-Dynamic: every commit goes through the frame
// clock's dynamic bookkeeping, so the clock's scalability shows up here as
// whole-system throughput.
func benchmarkDynamicManagerList(b *testing.B, threads int) {
	m := NewManager(DefaultConfig(OnlineDynamic, threads))
	rt := stm.New(threads, m)
	s := bench.NewList()
	bench.Populate(rt.Thread(0), s, 128, 256, 1)
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		quota := b.N / threads
		if i < b.N%threads {
			quota++
		}
		wg.Add(1)
		go func(id, quota int, th *stm.Thread) {
			defer wg.Done()
			g := bench.NewGen(bench.Mix{UpdatePct: 100, KeyRange: 256}, uint64(id)*7919+1)
			for n := 0; n < quota; n++ {
				op := g.Next()
				th.Atomic(func(tx *stm.Tx) { bench.Apply(tx, s, op) })
			}
		}(i, quota, rt.Thread(i))
	}
	wg.Wait()
}

// BenchmarkDynamicManagerList is the end-to-end cell for the dynamic frame
// clock (M=4/8/16 feed the EXPERIMENTS.md scaling table).
func BenchmarkDynamicManagerList(b *testing.B) {
	for _, m := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("M%d", m), func(b *testing.B) { benchmarkDynamicManagerList(b, m) })
	}
}

// BenchmarkManagerUncontendedCommit measures what the default manager
// costs a transaction that conflicts with nobody: empty transactions on one
// thread of an M = 2 runtime, Begin and Committed being all there is. The
// thread stays outside the window throughout, so this is the floor every
// unconflicted commit of a kv shard pays. Must stay at 0 allocs/op
// (TestUnconflictedCommitZeroAlloc asserts it).
func BenchmarkManagerUncontendedCommit(b *testing.B) {
	m := New(AdaptiveImprovedDynamic, 2)
	th := stm.New(2, m).Thread(0)
	empty := func(*stm.Tx) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Atomic(empty)
	}
	b.StopTimer()
	if m.threads[0].inWindow.Load() {
		b.Fatal("an unconflicted thread entered the window")
	}
}

// BenchmarkResolve measures one priority-vector conflict decision.
func BenchmarkResolve(b *testing.B) {
	m := NewManager(DefaultConfig(OnlineDynamic, 4))
	rt := stm.New(2, m)
	var a, e *stm.Tx
	rt.Thread(0).Atomic(func(tx *stm.Tx) { a = tx })
	rt.Thread(1).Atomic(func(tx *stm.Tx) { e = tx })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Resolve(a, e, stm.WriteWrite, 1)
	}
}

// BenchmarkScheduleNext measures per-transaction window bookkeeping
// (Begin of a fresh transaction, including segment turnover).
func BenchmarkScheduleNext(b *testing.B) {
	cfg := DefaultConfig(OnlineDynamic, 1)
	cfg.N = 50
	m := NewManager(cfg)
	st := m.threads[0]
	d := &stm.Desc{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Seq = i
		m.scheduleNext(st, d)
	}
}
