// Crash-recovery campaign: run the durable workload on a simulated disk,
// kill the disk at randomized seeded points (mid-append byte budgets,
// failed and short fsyncs, torn tails, mid-snapshot), recover, and verify
// the durability invariants round after round on the same surviving
// on-disk state.
package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wincm/internal/chaos"
	"wincm/internal/core"
	"wincm/internal/rng"
	"wincm/internal/stm"
	"wincm/internal/wal"
)

// WalCrashOptions configures one crash-recovery campaign. One campaign =
// one simulated disk surviving Rounds crashes; every round recovers the
// previous round's wreckage before making new damage.
type WalCrashOptions struct {
	// Seed drives the disk's torn-tail draws, the crash schedule, and the
	// workload rngs.
	Seed uint64
	// Rounds is the number of crash points (default 20).
	Rounds int
	// Threads is the worker count (default 4).
	Threads int
	// KeyRange is the tree key space (default 128).
	KeyRange int
	// Manager names the contention manager (default adaptive-improved, a
	// window manager, so the frame-clock seal path is exercised).
	Manager string
	// WindowN is N for window managers (0 = paper default).
	WindowN int
	// SyncEvery is the WAL group-commit depth (default 1).
	SyncEvery int
	// SegmentBytes keeps segments small so rolls happen often (default 8 KiB).
	SegmentBytes int64
	// Backend selects the STM engine for the workload ("" = eager). The
	// lazy backend's commit-time write-back must preserve the same
	// PreCommit reservation order the replay depends on.
	Backend string
	// RoundDur bounds how long each round's workers run (default 25ms).
	RoundDur time.Duration
	// SnapshotProb is the chance a round takes a successful mid-round
	// snapshot before its crash (default 0.3), so recovery-from-snapshot
	// and segment truncation stay in the rotation.
	SnapshotProb float64
	// Logf, when non-nil, receives per-round progress lines.
	Logf func(format string, args ...any)
}

func (o WalCrashOptions) withDefaults() WalCrashOptions {
	if o.Rounds == 0 {
		o.Rounds = 20
	}
	if o.Threads == 0 {
		o.Threads = 4
	}
	if o.KeyRange == 0 {
		o.KeyRange = 128
	}
	if o.Manager == "" {
		o.Manager = "adaptive-improved"
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 1
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 8 << 10
	}
	if o.RoundDur == 0 {
		o.RoundDur = 25 * time.Millisecond
	}
	if o.SnapshotProb == 0 {
		o.SnapshotProb = 0.3
	}
	return o
}

// Crash modes cycled across rounds so every injection shape is guaranteed
// coverage; the parameters within each mode are drawn from the seed.
const (
	crashMidAppend   = iota // exact byte budget lands mid-write
	crashFailSync           // fsync fails, then the disk dies
	crashShortSync          // fsync persists a strict prefix, then dies
	crashTornTail           // plain timed crash: unsynced tail is torn
	crashMidSnapshot        // byte budget armed just before a snapshot
	crashDouble             // fsync fault armed before recovery itself: the
	// torn-tail truncate fails mid-recovery, the disk crashes again, and
	// the resurrected pre-truncate tail must not break the next recovery
	crashModes
)

var crashModeNames = [crashModes]string{
	"mid-append", "fail-sync", "short-sync", "torn-tail", "mid-snapshot", "double-crash",
}

// WalCrashReport summarizes a campaign.
type WalCrashReport struct {
	Rounds    int
	ByMode    [crashModes]int
	Replayed  int64 // commit records replayed across all recoveries
	TornTails int64 // torn tails discarded across all recoveries
	Snapshots int64 // snapshots survived into a recovery
	Committed int64 // transactions committed in memory across all rounds
	// RecoveryCrashes counts double-crash rounds whose armed fault actually
	// landed inside recovery (wal.Open failed, the disk died with the
	// torn-tail cut still volatile, and a second recovery ran on the
	// resurrected tail).
	RecoveryCrashes int64
	DiskStats       chaos.DiskStats
	FinalFloor      int64 // durable records proven recovered in the last round
}

// WalCrash runs the campaign and returns an error on the first violated
// invariant. Checked every round, on the accumulated wreckage:
//
//  1. recovery succeeds (wal.Open never errors after a crash — except in
//     double-crash rounds, where a fault armed inside recovery may fail
//     the first attempt; the rearmed-free second attempt must succeed);
//  2. the recovered tree passes red-black validation and matches the
//     shadow interpretation of the log byte-for-byte (CheckRecovered);
//  3. per-thread counters are monotone across recoveries — durable state
//     never regresses;
//  4. the durability floor holds: everything fsync-acknowledged before the
//     crash is present after it;
//  5. no resurrection: recovery never reports more transactions for a
//     thread than that thread actually committed — in particular nothing
//     from an unsealed frame's tail can reappear.
func WalCrash(o WalCrashOptions) (WalCrashReport, error) {
	o = o.withDefaults()
	var rep WalCrashReport
	disk := chaos.NewDisk(o.Seed)
	r := rng.New(o.Seed ^ 0x9e3779b97f4a7c15)

	// Durable state proven recovered so far, per thread, and the ceiling
	// observed live before the previous crash.
	floor := make([]int64, o.Threads)
	ceiling := make([]int64, o.Threads)
	for i := range ceiling {
		ceiling[i] = 0
	}
	var durableAtCrash int64 // fsync-acknowledged records in the last life
	var floorSum int64

	for round := 0; round < o.Rounds; round++ {
		mode := round % crashModes
		rep.ByMode[mode]++

		w := NewDurableMap(o.Threads, o.KeyRange)
		wopt := wal.Options{FS: disk, SyncEvery: o.SyncEvery, SegmentBytes: o.SegmentBytes}
		if mode == crashDouble && round > 0 {
			// Arm the fault before recovery: if the previous crash left a
			// torn tail, the durable truncate's internal fsync fails and
			// Open must error rather than continue on a volatile cut.
			disk.ArmFailSync()
		}
		log, rinfo, err := wal.Open(wopt, w.Restore, w.Apply)
		if err != nil && mode == crashDouble {
			// The fault landed inside recovery. Crash now — the volatile
			// truncate is lost, resurrecting the pre-truncate torn tail —
			// and recover again from scratch: the second recovery must
			// re-trim the tail and hold every invariant. Nothing was
			// fsync-acknowledged in the failed life, so the floor carries
			// over unchanged.
			rep.RecoveryCrashes++
			disk.Crash()
			disk.Reopen()
			w = NewDurableMap(o.Threads, o.KeyRange)
			log, rinfo, err = wal.Open(wopt, w.Restore, w.Apply)
		}
		if err != nil {
			return rep, fmt.Errorf("walcrash round %d: recovery failed: %w", round, err)
		}
		rep.Replayed += rinfo.Records
		rep.TornTails += rinfo.TornTails
		if rinfo.SnapshotRestored {
			rep.Snapshots++
		}

		// Invariants 2-5 on the recovered state.
		if err := w.CheckRecovered(); err != nil {
			return rep, fmt.Errorf("walcrash round %d: recovered state inconsistent: %w", round, err)
		}
		rec := w.Counters()
		var recSum int64
		for i, n := range rec {
			recSum += n
			if n < floor[i] {
				return rep, fmt.Errorf("walcrash round %d: thread %d regressed: recovered %d, previously recovered %d", round, i, n, floor[i])
			}
			if round > 0 && n > ceiling[i] {
				return rep, fmt.Errorf("walcrash round %d: thread %d resurrected: recovered %d, only %d ever committed", round, i, n, ceiling[i])
			}
		}
		if recSum < floorSum+durableAtCrash {
			return rep, fmt.Errorf("walcrash round %d: durability floor violated: recovered %d records, want >= %d prior + %d fsync-acknowledged", round, recSum, floorSum, durableAtCrash)
		}
		copy(floor, rec)
		floorSum = recSum

		// New life: run the workload on the recovered state until the
		// scheduled crash.
		cfg := Config{Manager: o.Manager, Threads: o.Threads, WindowN: o.WindowN, Backend: o.Backend, Seed: o.Seed + uint64(round)*1000003}
		mgr, err := cfg.NewManager()
		if err != nil {
			return rep, err
		}
		rt := stm.New(o.Threads, mgr, stm.WithCommitHook(log))
		// Busy workers on few cores can starve the WAL's linger goroutine
		// outright; the harness's standard interleave yield keeps it live.
		rt.SetYieldEvery(cfg.interleave())
		if wm, ok := mgr.(*core.Manager); ok {
			wm.AddFrameHook(log.Advance)
		}

		snapshotMidRound := mode != crashMidSnapshot && r.Bool(o.SnapshotProb)

		var stop atomic.Bool
		var wg sync.WaitGroup
		for i := 0; i < o.Threads; i++ {
			wg.Add(1)
			go func(id int, th *stm.Thread) {
				defer wg.Done()
				run := w.NewRunner(id, o.Seed+uint64(round)*7919+uint64(id))
				for !stop.Load() && !disk.Crashed() && log.Err() == nil {
					run(th)
				}
			}(i, rt.Thread(i))
		}

		// Phase 1: run clean long enough for linger seals and group-commit
		// fsyncs to make real progress durable — otherwise every fault
		// would land on an empty log and recovery would never be exercised
		// on data.
		warm := o.RoundDur/4 + time.Duration(r.Uint64n(uint64(o.RoundDur/4)))
		time.Sleep(warm)
		if snapshotMidRound && !disk.Crashed() && log.Err() == nil {
			resume := w.Quiesce()
			_ = log.Snapshot(w) // a failure here just means the crash won
			resume()
		}

		// Phase 2: arm the fault at this round's randomized point, then
		// let (or make) the crash land.
		rest := time.Duration(1 + r.Uint64n(uint64(o.RoundDur/4)))
		switch mode {
		case crashMidAppend:
			disk.ArmCrashAfter(int64(r.Uint64n(4096)) + 1)
			deadline := time.Now().Add(o.RoundDur)
			for !disk.Crashed() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			disk.Crash()
		case crashFailSync:
			disk.ArmFailSync()
			time.Sleep(rest)
			disk.Crash()
		case crashShortSync:
			disk.ArmShortSync()
			time.Sleep(rest)
			disk.Crash()
		case crashTornTail, crashDouble:
			// Plain timed crash tearing the unsynced tail. For crashDouble
			// this both seeds the torn tail the *next* double round's
			// in-recovery fault needs and, when this round's armed fsync
			// fault survived an untorn recovery, lets it land on a workload
			// fsync instead.
			time.Sleep(rest)
			disk.Crash()
		case crashMidSnapshot:
			// Arm a tiny budget so the crash hits inside the snapshot
			// protocol itself (its pre-sync, header or payload write).
			disk.ArmCrashAfter(int64(r.Uint64n(64)) + 1)
			resume := w.Quiesce()
			_ = log.Snapshot(w)
			resume()
			disk.Crash()
		}
		stop.Store(true)
		wg.Wait()

		// Memory survives the disk: the live counters bound what any
		// future recovery may report, and the log's fsync acknowledgements
		// bound what it must.
		live := w.Counters()
		var liveSum int64
		for i, n := range live {
			ceiling[i] = n
			liveSum += n
		}
		rep.Committed += liveSum - recSum
		durableAtCrash = log.DurableRecords()
		_ = log.Close() // the disk is dead; the error is expected
		disk.Reopen()
		if o.Logf != nil {
			o.Logf("round %2d %-12s committed=%d durable=%d recovered(prev)=%d torn(prev)=%d",
				round, crashModeNames[mode], liveSum-recSum, durableAtCrash, rinfo.Records, rinfo.TornTails)
		}
		rep.Rounds++
	}

	// Final recovery on the last wreckage, then a graceful close/reopen
	// cycle to prove the no-crash path is exact.
	w := NewDurableMap(o.Threads, o.KeyRange)
	wopt := wal.Options{FS: disk, SyncEvery: o.SyncEvery, SegmentBytes: o.SegmentBytes}
	log, rinfo, err := wal.Open(wopt, w.Restore, w.Apply)
	if err != nil {
		return rep, fmt.Errorf("walcrash final recovery: %w", err)
	}
	rep.Replayed += rinfo.Records
	rep.TornTails += rinfo.TornTails
	if err := w.CheckRecovered(); err != nil {
		return rep, fmt.Errorf("walcrash final recovery: %w", err)
	}
	rec := w.Counters()
	var recSum int64
	for i, n := range rec {
		recSum += n
		if n < floor[i] || n > ceiling[i] {
			return rep, fmt.Errorf("walcrash final recovery: thread %d recovered %d outside [%d, %d]", i, n, floor[i], ceiling[i])
		}
	}
	if recSum < floorSum+durableAtCrash {
		return rep, fmt.Errorf("walcrash final recovery: floor violated: %d < %d+%d", recSum, floorSum, durableAtCrash)
	}
	rep.FinalFloor = recSum
	if err := log.Close(); err != nil {
		return rep, fmt.Errorf("walcrash graceful close: %w", err)
	}
	w2 := NewDurableMap(o.Threads, o.KeyRange)
	log2, rinfo2, err := wal.Open(wopt, w2.Restore, w2.Apply)
	if err != nil {
		return rep, fmt.Errorf("walcrash post-graceful recovery: %w", err)
	}
	defer log2.Close()
	if rinfo2.TornTails != 0 {
		return rep, fmt.Errorf("walcrash: graceful shutdown left a torn tail (%d)", rinfo2.TornTails)
	}
	got := w2.Counters()
	for i, n := range got {
		if n != rec[i] {
			return rep, fmt.Errorf("walcrash: graceful cycle not exact: thread %d %d != %d", i, n, rec[i])
		}
	}
	rep.DiskStats = disk.Stats()
	return rep, nil
}
