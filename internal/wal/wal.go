// Package wal is the runtime's crash-safe durability layer: an append-only
// write-ahead log whose unit of persistence is the paper's frame. The
// window framework quantizes execution into frames; every transaction that
// commits within a frame is buffered into one batch, and the batch is
// sealed when the frame-clock advances (core.Manager.AddFrameHook) and
// flushed with a single fsync — group commit with the frame as the natural
// barrier, so the fsync rate is bound to the frame rate, not the commit
// rate.
//
// Wiring: the Log implements stm.CommitHook. PreCommit runs before a
// transaction's commit CAS and reserves its slot in the current batch
// under the log mutex; because any dependent transaction can only observe
// a committed value after that CAS, reservation order is consistent with
// the conflict serialization order, and replay order is correct without
// any further coordination (see stm/hook.go). PostCommit marks the
// reservation committed or void after the CAS.
//
// Durability semantics are asynchronous and frame-granular: a transaction
// is durable once its batch's fsync returns, and recovery restores a
// prefix of the sealed-batch order — never a subset, never an unsealed
// frame's transactions. DurableRecords exposes the confirmed-durable count
// so harnesses can verify exactly that contract under crash injection.
package wal

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wincm/internal/stm"
)

// Options configures a Log.
type Options struct {
	// FS is the filesystem (required): DirFS for a real directory, or a
	// chaos.Disk for deterministic crash injection.
	FS FS
	// SegmentBytes rolls the active segment when it exceeds this size
	// (default 4 MiB). Rolling fsyncs the old segment first, so only the
	// newest segment can ever hold volatile bytes.
	SegmentBytes int64
	// SyncEvery is the group-commit depth: fsync once per this many
	// sealed batches (default 1 = every frame). Larger values trade
	// durability lag for fewer fsyncs; the EXPERIMENTS durability table
	// measures exactly this sensitivity.
	SyncEvery int
	// Linger bounds how long an open batch can wait for a frame-clock
	// advance before the background syncer seals it anyway (default 2ms;
	// < 0 disables). This keeps non-window contention managers — which
	// drive no frame clock — durable with a time-based group commit, and
	// flushes idle tails under SyncEvery > 1.
	Linger time.Duration
	// Observer, when set, receives per-batch and per-fsync notifications
	// (telemetry histograms, the flight recorder's WAL track). Callbacks
	// run under the log's writer lock — they must be fast, non-blocking
	// and must not call back into the log.
	Observer Observer
}

// Observer receives the log's write-path notifications. Implementations
// are called with the writer lock held; keep them allocation-free and
// quick (a histogram observation, a ring push).
type Observer interface {
	// BatchSealed reports one group-commit batch written to the active
	// segment: its sequence number and how many committed transactions'
	// records it carried.
	BatchSealed(seq int64, txs int)
	// FsyncDone reports one completed fsync: its duration and how many
	// records it made durable.
	FsyncDone(d time.Duration, recs int)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
	if o.Linger == 0 {
		o.Linger = 2 * time.Millisecond
	}
	return o
}

// Stats are the log's cumulative counters, surfaced through telemetry as
// wincm_wal_*_total.
type Stats struct {
	// Appends counts commit records reserved into batches.
	Appends int64
	// Batches counts batches written to a segment.
	Batches int64
	// Fsyncs counts segment fsyncs issued.
	Fsyncs int64
	// Bytes counts bytes written to segments.
	Bytes int64
	// DurableRecords counts commit records whose batch fsync succeeded
	// this session (recovered records are not included).
	DurableRecords int64
	// Snapshots counts snapshots taken.
	Snapshots int64
	// TornTails counts torn or incomplete tails discarded at recovery
	// (including invalid snapshots).
	TornTails int64
	// Recoveries is 1 when Open found existing state to recover.
	Recoveries int64
	// Dropped counts commit records discarded because the log had already
	// failed when they were reserved or flushed.
	Dropped int64
}

// ErrClosed is returned for appends after Close.
var ErrClosed = errors.New("wal: log closed")

// SnapshotSource streams an application-defined snapshot of the durable
// roots. The payload is opaque to the log.
type SnapshotSource interface {
	WriteSnapshot(w io.Writer) error
}

// recState values of a reservation.
const (
	recPending int32 = iota
	recCommitted
	recAborted
)

// walRec is one reserved commit record. Recycled through a pool once its
// batch is flushed.
type walRec struct {
	txid  uint64
	buf   []byte // encoded commit payload
	state atomic.Int32
}

var recPool = sync.Pool{New: func() any { return new(walRec) }}

// batch is one frame's group commit.
type batch struct {
	seq  int64
	recs []*walRec
	born time.Time // first reservation, for the linger seal
}

// Log is the write-ahead log. One Log serves one runtime; install it with
// stm.WithCommitHook(log) and, for window managers,
// core.Manager.AddFrameHook(log.Advance).
type Log struct {
	opt Options
	fs  FS

	// mu guards the open batch and the sealed-but-unwritten queue. It is
	// the reservation order lock: PreCommit holds it for an append only.
	mu      sync.Mutex
	open    *batch
	pending []*batch
	nextSeq int64
	closed  bool

	// wmu guards the writer state below; the background syncer, Sync and
	// Snapshot serialize on it, and batches are written in seal order
	// because the pending queue is drained under it.
	wmu          sync.Mutex
	cur          File
	curName      string
	curSize      int64
	sinceSync    int
	unsyncedRecs int64
	lastSeq      int64 // highest batch seq written
	lastWrite    time.Time
	scratch      []byte

	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	failed atomic.Pointer[errBox]

	appends    atomic.Int64
	batches    atomic.Int64
	fsyncs     atomic.Int64
	bytes      atomic.Int64
	durable    atomic.Int64
	durableSeq atomic.Int64
	snapshots  atomic.Int64
	torn       atomic.Int64
	recoveries atomic.Int64
	dropped    atomic.Int64
}

type errBox struct{ err error }

var _ stm.CommitHook = (*Log)(nil)

// Err returns the log's first unrecoverable I/O error, or nil. Once set,
// every later reservation fails with it — the durable record stream is
// always a prefix, never a subset with holes.
func (l *Log) Err() error {
	if b := l.failed.Load(); b != nil {
		return b.err
	}
	return nil
}

func (l *Log) fail(err error) {
	l.failed.CompareAndSwap(nil, &errBox{err})
}

// Stats returns the cumulative counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:        l.appends.Load(),
		Batches:        l.batches.Load(),
		Fsyncs:         l.fsyncs.Load(),
		Bytes:          l.bytes.Load(),
		DurableRecords: l.durable.Load(),
		Snapshots:      l.snapshots.Load(),
		TornTails:      l.torn.Load(),
		Recoveries:     l.recoveries.Load(),
		Dropped:        l.dropped.Load(),
	}
}

// DurableRecords returns how many commit records of this session are
// confirmed durable (their batch fsync succeeded). Crash harnesses use it
// as the recovery floor: a recovered state must contain at least these.
func (l *Log) DurableRecords() int64 { return l.durable.Load() }

// DurableSeq returns the highest batch sequence confirmed durable.
func (l *Log) DurableSeq() int64 { return l.durableSeq.Load() }

// PreCommit implements stm.CommitHook: encode the attempt's staged write
// set and reserve its slot in the current frame's batch. Runs on the
// committing thread immediately before the commit CAS.
func (l *Log) PreCommit(tx *stm.Tx) (any, error) {
	if err := l.Err(); err != nil {
		l.dropped.Add(1)
		return nil, err
	}
	rec := recPool.Get().(*walRec)
	rec.state.Store(recPending)
	rec.txid = tx.D.ID.Load()
	intents := tx.Intents()
	rec.buf = appendCommitPayload(rec.buf[:0], rec.txid, len(intents),
		func(i int) (uint8, uint64, []byte) { return intents[i].Op, intents[i].Key, intents[i].Val })
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		recPool.Put(rec)
		l.dropped.Add(1)
		return nil, ErrClosed
	}
	b := l.open
	if b == nil {
		b = &batch{seq: l.nextSeq, born: time.Now()}
		l.open = b
	}
	b.recs = append(b.recs, rec)
	l.mu.Unlock()
	l.appends.Add(1)
	return rec, nil
}

// PostCommit implements stm.CommitHook: settle the reservation with the
// commit CAS outcome. The writer spin-waits on exactly this settling, and
// the runtime guarantees PostCommit follows PreCommit unconditionally, so
// the wait is bounded by the CAS between them.
func (l *Log) PostCommit(_ *stm.Tx, token any, committed bool) error {
	rec, ok := token.(*walRec)
	if !ok || rec == nil {
		return nil // reservation failed; PreCommit already reported why
	}
	if committed {
		rec.state.Store(recCommitted)
	} else {
		rec.state.Store(recAborted)
	}
	return nil
}

// Advance is the group-commit barrier: the frame clock calls it (via
// core.Manager.AddFrameHook) when a frame ends, sealing the open batch.
// The frame index is informational — batches carry their own contiguous
// sequence, so racing or out-of-order advances at worst seal an empty
// batch, which is a no-op.
func (l *Log) Advance(int64) { l.seal() }

// seal closes the open batch and queues it for the writer.
func (l *Log) seal() {
	l.mu.Lock()
	b := l.open
	if b == nil || l.closed {
		l.mu.Unlock()
		return
	}
	l.open = nil
	l.nextSeq++
	l.pending = append(l.pending, b)
	l.mu.Unlock()
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// takePending removes the sealed-batch queue. Callers must hold wmu so
// concurrent drains cannot reorder batches on disk.
func (l *Log) takePending() []*batch {
	l.mu.Lock()
	bs := l.pending
	l.pending = nil
	l.mu.Unlock()
	return bs
}

// drainWLocked writes every queued batch (wmu held).
func (l *Log) drainWLocked() {
	for {
		bs := l.takePending()
		if len(bs) == 0 {
			return
		}
		for _, b := range bs {
			l.writeBatchWLocked(b)
		}
	}
}

// settle waits out the tiny PreCommit→PostCommit window of every
// reservation in b and returns the committed records in reservation order.
// The window is normally a handful of instructions (the commit CAS), but a
// committing thread can be descheduled inside it; back off from a yield
// spin to escalating sleeps so a stalled committer parks the writer
// instead of burning a core under wmu.
func settle(b *batch) []*walRec {
	committed := b.recs[:0]
	for _, rec := range b.recs {
		for spin := 0; rec.state.Load() == recPending; spin++ {
			switch {
			case spin < 64:
				runtime.Gosched()
			case spin < 1024:
				time.Sleep(time.Microsecond)
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
		if rec.state.Load() == recCommitted {
			committed = append(committed, rec)
		} else {
			recPool.Put(rec)
		}
	}
	return committed
}

// writeBatchWLocked writes one sealed batch — its committed records plus
// the seal record — and fsyncs per the SyncEvery policy (wmu held).
func (l *Log) writeBatchWLocked(b *batch) {
	committed := settle(b)
	if l.Err() != nil {
		l.dropped.Add(int64(len(committed)))
		for _, rec := range committed {
			recPool.Put(rec)
		}
		return
	}
	if l.cur == nil {
		if err := l.openSegmentWLocked(b.seq); err != nil {
			l.fail(err)
			l.dropped.Add(int64(len(committed)))
			for _, rec := range committed {
				recPool.Put(rec)
			}
			return
		}
	}
	buf := l.scratch[:0]
	for _, rec := range committed {
		buf = appendFramed(buf, rec.buf)
	}
	buf = appendFramed(buf, appendSealPayload(nil, b.seq, len(committed)))
	err := l.writeWLocked(buf)
	l.scratch = buf
	for _, rec := range committed {
		recPool.Put(rec)
	}
	if err != nil {
		l.fail(err)
		return
	}
	l.batches.Add(1)
	l.unsyncedRecs += int64(len(committed))
	l.lastSeq = b.seq
	l.sinceSync++
	l.lastWrite = time.Now()
	if ob := l.opt.Observer; ob != nil {
		ob.BatchSealed(b.seq, len(committed))
	}
	if l.sinceSync >= l.opt.SyncEvery {
		if l.fsyncWLocked() != nil {
			return
		}
	}
	if l.curSize >= l.opt.SegmentBytes {
		l.rollWLocked()
	}
}

// writeWLocked appends buf to the active segment, counting bytes.
func (l *Log) writeWLocked(buf []byte) error {
	n, err := l.cur.Write(buf)
	l.bytes.Add(int64(n))
	l.curSize += int64(n)
	return err
}

// fsyncWLocked makes everything written so far durable and publishes the
// durable watermark (wmu held).
func (l *Log) fsyncWLocked() error {
	if l.cur == nil || (l.sinceSync == 0 && l.unsyncedRecs == 0) {
		return l.Err()
	}
	if err := l.Err(); err != nil {
		return err
	}
	start := time.Now()
	if err := l.cur.Sync(); err != nil {
		l.fail(err)
		return err
	}
	if ob := l.opt.Observer; ob != nil {
		ob.FsyncDone(time.Since(start), int(l.unsyncedRecs))
	}
	l.fsyncs.Add(1)
	l.durable.Add(l.unsyncedRecs)
	l.unsyncedRecs = 0
	l.sinceSync = 0
	l.durableSeq.Store(l.lastSeq)
	return nil
}

// rollWLocked finishes the active segment — fsync, so older segments are
// never volatile — and arranges for the next write to open a fresh one.
func (l *Log) rollWLocked() {
	if l.fsyncWLocked() != nil {
		return
	}
	if err := l.cur.Close(); err != nil {
		l.fail(err)
	}
	l.cur = nil
	l.curName = ""
	l.curSize = 0
}

// openSegmentWLocked creates the segment whose first batch is firstSeq,
// making its directory entry durable before any content can be reported
// durable (a synced file with a volatile name is lost at crash).
func (l *Log) openSegmentWLocked(firstSeq int64) error {
	name := segName(firstSeq)
	f, err := l.fs.Create(name)
	if err != nil {
		return err
	}
	l.cur, l.curName, l.curSize = f, name, 0
	if err := l.writeWLocked(segHeader(firstSeq)); err != nil {
		return err
	}
	return l.fs.SyncDir()
}

// syncer is the background flusher: it drains sealed batches on kicks,
// seals lingering open batches when no frame advance arrives, and flushes
// idle unsynced tails.
func (l *Log) syncer() {
	defer close(l.done)
	tick := l.opt.Linger
	if tick <= 0 {
		tick = 5 * time.Millisecond
	}
	timer := time.NewTimer(tick)
	defer timer.Stop()
	for {
		select {
		case <-l.quit:
			l.wmu.Lock()
			l.drainWLocked()
			l.fsyncWLocked()
			if l.cur != nil {
				l.cur.Close()
				l.cur = nil
			}
			l.wmu.Unlock()
			return
		case <-l.kick:
		case <-timer.C:
			timer.Reset(tick)
			if l.opt.Linger > 0 {
				l.lingerSeal()
			}
		}
		l.wmu.Lock()
		l.drainWLocked()
		if l.opt.Linger > 0 && l.unsyncedRecs > 0 && time.Since(l.lastWrite) >= l.opt.Linger {
			l.fsyncWLocked()
		}
		l.wmu.Unlock()
	}
}

// lingerSeal seals the open batch if it has waited longer than Linger for
// a frame advance.
func (l *Log) lingerSeal() {
	l.mu.Lock()
	stale := l.open != nil && time.Since(l.open.born) >= l.opt.Linger
	l.mu.Unlock()
	if stale {
		l.seal()
	}
}

// Sync seals the open batch and blocks until everything reserved so far
// is flushed and fsynced (or the log has failed).
func (l *Log) Sync() error {
	l.seal()
	l.wmu.Lock()
	l.drainWLocked()
	err := l.fsyncWLocked()
	l.wmu.Unlock()
	if err != nil {
		return err
	}
	return l.Err()
}

// Close seals and flushes everything, stops the background syncer and
// closes the active segment. Further reservations fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.Err()
	}
	l.closed = true
	if b := l.open; b != nil {
		l.open = nil
		l.nextSeq++
		l.pending = append(l.pending, b)
	}
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	return l.Err()
}

// segName and snapName name the on-disk files by batch sequence.
func segName(firstSeq int64) string { return fmt.Sprintf("wal-%016x.seg", uint64(firstSeq)) }
func snapName(pos int64) string     { return fmt.Sprintf("snap-%016x.snap", uint64(pos)) }

const snapTmpName = "snap.tmp"
