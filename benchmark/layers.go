package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wincm/internal/core"
	"wincm/internal/harness"
	"wincm/internal/kv"
	"wincm/internal/rng"
	"wincm/internal/stm"
)

// countingConn counts the reads and bytes of the connection under a
// kv.Client. The byte counts depend only on the commands and repeat exactly.
type countingConn struct {
	net.Conn
	reads, readBytes, writeBytes int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.reads++
	c.readBytes += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.writeBytes += int64(n)
	return n, err
}

// sessionWorker replays commands through direct Session calls and verifies
// the results exactly as a client verifies replies.
type sessionWorker struct {
	se      *kv.Session
	ks      *keyspace
	st      *stream
	keys    [kv.MaxMultiKeys]int64
	vals    [kv.MaxMultiKeys]int64
	present [kv.MaxMultiKeys]bool
	done    [numClasses]int64
	bad     int64
}

func (w *sessionWorker) do(o *op) error {
	ks := w.ks
	good := true
	switch o.class {
	case clGet:
		v, ok := w.se.Get(int64(o.key))
		good = ks.checkGet(int(o.key), v, ok)
	case clSet:
		w.se.Set(int64(o.key), encodeVal(int(o.key), o.nonce))
	case clMGet:
		w.st.mgetKeys(o, ks, w.keys[:])
		m := ks.mkeys
		if err := w.se.MGet(w.keys[:m], w.vals[:m], w.present[:m]); err != nil {
			return err
		}
		good = ks.checkMGet(w.keys[:m], w.vals[:m], w.present[:m], o.whole)
	case clMSet:
		msetPairs(o, ks, w.keys[:], w.vals[:])
		if err := w.se.MSet(w.keys[:ks.mkeys], w.vals[:ks.mkeys]); err != nil {
			return err
		}
	case clScan:
		lo, hi := int(o.key), int(o.key)+ks.span
		if _, err := w.se.Scan(int64(lo), int64(hi), ks.span); err != nil {
			return err
		}
		good = ks.checkScan(lo, hi, w.se.ScanKeys(), w.se.ScanVals())
	}
	if good {
		w.done[o.class]++
	} else {
		w.bad++
	}
	return nil
}

// medianNsPerOp times fn, which performs ops operations, reps times and
// returns the median time per operation.
func medianNsPerOp(reps, ops int, fn func()) float64 {
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start)) / float64(ops)
	}
	return median(times)
}

// replayOps is how many commands of a class one differential-replay cell
// runs: fewer for the classes that cost more, so every cell takes a similar
// time. Each is a whole number of batches.
var replayOps = [numClasses]int{clGet: 1 << 15, clSet: 1 << 15, clMGet: 1 << 13, clMSet: 1 << 13, clScan: 1 << 12}

const replayReps = 3

// Levels of the differential replay, shallowest first.
const (
	lvWire = iota
	lvSession
	lvTree
	lvSTM
	numLevels
)

// layerProbe measures the layers of a kv workload once the closed-loop
// windows are over and the server is otherwise idle.
type layerProbe struct {
	sys     *kvSystem
	streams []*stream
	shape   runShape
	seed    uint64
	p       int
	m       *metricSet
	out     io.Writer
	// rig runs what a shard runs — default window manager, default
	// interleave — so its transactions cost what the store's do.
	rig *treeRig
	mgr *core.Manager
	// opsPerSec is the closed-loop run's untraced median, for the residual.
	opsPerSec float64
	// checked and failed count the commands the probes verified.
	checked, failed int64
}

// budget is the layer budget by differential replay: the same commands,
// one class at a time, through successively deeper public entry points —
// Client over loopback, Session, txbtree inside Atomic, bare Atomic. A
// layer's self time is its level minus the next deeper level, so the self
// times of a class sum to its wire-replay time by construction.
func (lp *layerProbe) budget() error {
	s, ks := lp.sys.spec, lp.sys.ks
	frac := s.mixFractions()
	var level [numClasses][numLevels]float64
	var reqBytes, replyBytes, reads float64

	for class := 0; class < numClasses; class++ {
		if frac[class] == 0 {
			continue
		}
		n := replayOps[class] / lp.shape.replayDiv / s.depth * s.depth
		if n < s.depth {
			n = s.depth
		}
		ops := lp.streams[0].ofClass(class, n)
		if len(ops) < s.depth {
			return fmt.Errorf("budget: stream holds only %d %s commands", len(ops), classNames[class])
		}
		ops = ops[:len(ops)/s.depth*s.depth]
		n = len(ops)
		classStream := &stream{ops: ops, extra: lp.streams[0].extra}

		// One connection at the workload's pipeline depth, one session, one
		// rig thread.
		raw, err := lp.sys.dial()
		if err != nil {
			return err
		}
		conn := &countingConn{Conn: raw}
		c := newClient(0, conn, ks, classStream, s.depth)
		sw := &sessionWorker{se: lp.sys.st.NewSession(), ks: ks, st: classStream}
		rw := lp.rig.worker(0, classStream)
		run := [numLevels]func() error{
			lvWire: func() error {
				for i := 0; i < n/s.depth; i++ {
					if err := c.roundTrip(false); err != nil {
						return err
					}
				}
				return nil
			},
			lvSession: func() error {
				for i := range ops {
					if err := sw.do(&ops[i]); err != nil {
						return err
					}
				}
				return nil
			},
			lvTree: func() error {
				rw.bare = false
				for i := range ops {
					rw.do(&ops[i])
				}
				return nil
			},
			lvSTM: func() error {
				rw.bare = true
				for i := range ops {
					rw.do(&ops[i])
				}
				return nil
			},
		}
		// Every repetition visits all four levels, so a slow spell of the
		// machine lands on all of them and mostly cancels in the differences.
		var times [numLevels][]float64
		for rep := 0; rep < replayReps && err == nil; rep++ {
			for lv, fn := range run {
				start := time.Now()
				if err = fn(); err != nil {
					break
				}
				times[lv] = append(times[lv], float64(time.Since(start))/float64(n))
			}
		}
		conn.Close()
		if err != nil {
			return err
		}
		for lv := range times {
			level[class][lv] = median(times[lv])
		}
		ok, bad := c.total()
		lp.checked += ok + bad + 2*int64(replayReps*n)
		lp.failed += bad + sw.bad + rw.bad
		sent := float64(replayReps * n)
		reqBytes += frac[class] * float64(conn.writeBytes) / sent
		replyBytes += frac[class] * float64(conn.readBytes) / sent
		reads += frac[class] * float64(conn.reads) / sent * 1e3
	}

	// The table, and the mix-weighted self time of each layer.
	fmt.Fprintf(lp.out, "layer budget %s: ns per command by differential replay (self = level - next deeper level)\n", s.name)
	fmt.Fprintf(lp.out, "budget %-5s %12s | %10s %10s %10s %10s | %10s\n", "class", "wire_replay", "wire", "session", "tree", "stm", "sum")
	var self [numLevels]float64
	var wireReplay float64
	for class := 0; class < numClasses; class++ {
		if frac[class] == 0 {
			continue
		}
		st := selfTimes(level[class][:])
		sum := 0.0
		for lv, v := range st {
			self[lv] += frac[class] * v
			sum += v
		}
		wireReplay += frac[class] * level[class][lvWire]
		fmt.Fprintf(lp.out, "budget %-5s %12.1f | %10.1f %10.1f %10.1f %10.1f | %10.1f\n",
			classNames[class], level[class][lvWire], st[lvWire], st[lvSession], st[lvTree], st[lvSTM], sum)
		lp.m.set("kv.session.ns_per_op."+classNames[class], level[class][lvSession])
	}
	fmt.Fprintf(lp.out, "budget %-5s %12.1f | %10.1f %10.1f %10.1f %10.1f | %10.1f\n",
		"mix", wireReplay, self[lvWire], self[lvSession], self[lvTree], self[lvSTM],
		self[lvWire]+self[lvSession]+self[lvTree]+self[lvSTM])

	lp.m.set("kv.wire.self_ns_per_op", self[lvWire])
	lp.m.set("kv.session.self_ns_per_op", self[lvSession])
	lp.m.set("txbtree.self_ns_per_op", self[lvTree])
	lp.m.set("kv.wire.req_bytes_per_op", reqBytes)
	lp.m.set("kv.wire.reply_bytes_per_op", replyBytes)
	lp.m.set("kv.wire.reads_per_kop", reads)
	// What a client waits per command beyond one connection's replay cost:
	// queueing behind the other clients, the scheduler and the kernel.
	if lp.opsPerSec > 0 {
		lp.m.set("client.residual_ns_per_op", float64(lp.p)/lp.opsPerSec*1e9-wireReplay)
	}
	return nil
}

// treeFloor times single tree operations on the rig's trees, each the size
// of one shard's tree, at uniformly random keys. Each figure is the
// transaction holding the operation minus the empty transaction on the same
// thread, so the manager's hooks cancel, and the open-yield is off, so the
// tree's own time is left.
func (lp *layerProbe) treeFloor() {
	ks, rig := lp.sys.ks, lp.rig
	rig.rt.SetYieldEvery(0)
	defer rig.rt.SetYieldEvery(storeInterleave)
	n := (1 << 16) / lp.shape.replayDiv
	r := rng.New(lp.seed ^ 0x7265655f666c6f6f)
	keys := make([]int, n)
	for i := range keys {
		// Single-range keys: an insert there keeps every group whole.
		keys[i] = ks.group + r.Intn(ks.keys-ks.group-ks.span)
	}
	th := rig.rt.Thread(0)
	trees := len(rig.trees)
	var key int
	var sink int64
	timeOp := func(ops int, fn func(*stm.Tx)) float64 {
		return medianNsPerOp(replayReps, ops, func() {
			for _, key = range keys[:ops] {
				th.Atomic(fn)
			}
		})
	}
	each := func(k int, v int64) bool {
		sink += v
		return true
	}
	floor := timeOp(n, func(*stm.Tx) {})
	lp.m.set("txbtree.get_ns_per_op", timeOp(n, func(tx *stm.Tx) {
		v, _ := rig.trees[route(int64(key), trees)].Get(tx, key)
		sink += v
	})-floor)
	lp.m.set("txbtree.insert_ns_per_op", timeOp(n, func(tx *stm.Tx) {
		rig.trees[route(int64(key), trees)].Insert(tx, key, encodeVal(key, 1))
	})-floor)
	lp.m.set("txbtree.scan64_ns_per_op", timeOp(n/8, func(tx *stm.Tx) {
		rig.trees[route(int64(key), trees)].Scan(tx, key, key+64, each)
	})-floor)
	_ = sink
}

// ping times pipelined PINGs: request parse, reply and flush with no store
// behind them.
func (lp *layerProbe) ping() error {
	conn, err := lp.sys.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	c := kv.NewClient(conn)
	depth := lp.sys.spec.depth
	n := (1 << 17) / lp.shape.replayDiv / depth * depth
	var rep kv.Reply
	batch := func() error {
		for d := 0; d < depth; d++ {
			c.QueuePing()
		}
		if err := c.Flush(); err != nil {
			return err
		}
		for d := 0; d < depth; d++ {
			if err := c.ReadReply(&rep); err != nil {
				return err
			}
			if rep.Kind != kv.ReplySimple {
				return errors.New("ping: unexpected reply")
			}
		}
		return nil
	}
	v := medianNsPerOp(replayReps, n, func() {
		for i := 0; i < n && err == nil; i += depth {
			err = batch()
		}
	})
	if err != nil {
		return err
	}
	lp.m.set("kv.wire.ping_ns_per_op", v)
	return nil
}

// getStall is the reader tax seen from a point read: Session.Get time while
// a second session loops 64-key scans, which hold every shard exclusively,
// over the same time alone.
func (lp *layerProbe) getStall() error {
	ks := lp.sys.ks
	n := (1 << 14) / lp.shape.replayDiv
	r := rng.New(lp.seed ^ 0x7374616c6c)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(ks.singleKey(r))
	}
	se := lp.sys.st.NewSession()
	gets := func() {
		for _, k := range keys {
			if v, ok := se.Get(k); !ks.checkGet(int(k), v, ok) {
				lp.failed++
			}
		}
		lp.checked += int64(n)
	}
	alone := medianNsPerOp(replayReps, n, gets)

	var stop atomic.Bool
	var scanErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc := lp.sys.st.NewSession()
		sr := rng.New(lp.seed ^ 0x7363616e)
		for !stop.Load() {
			lo := int64(ks.zScan.Next(sr))
			if _, err := sc.Scan(lo, lo+int64(ks.span), ks.span); err != nil {
				scanErr = err
				return
			}
		}
	}()
	with := medianNsPerOp(replayReps, n, gets)
	stop.Store(true)
	wg.Wait()
	if scanErr != nil {
		return scanErr
	}
	lp.m.set("kv.session.get_stall_ratio", with/alone)
	return nil
}

// sessionReplay runs the clients' streams through p sessions with no wire:
// what the store sustains when nothing is parsed, written or flushed.
func (lp *layerProbe) sessionReplay() error {
	workers := make([]*sessionWorker, lp.p)
	errs := make([]error, lp.p)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		w := &sessionWorker{se: lp.sys.st.NewSession(), ks: lp.sys.ks, st: lp.streams[i]}
		workers[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := w.st.ops
			for pos := 0; !stop.Load(); pos = (pos + 1) % len(ops) {
				if errs[i] = w.do(&ops[pos]); errs[i] != nil {
					return
				}
			}
		}(i)
	}
	time.Sleep(lp.shape.probe)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	var done int64
	for _, w := range workers {
		for _, n := range w.done {
			done += n
		}
		done += w.bad
		lp.failed += w.bad
	}
	lp.checked += done
	lp.m.set("kv.session.replay_ops_per_s", float64(done)/elapsed.Seconds())
	return nil
}

// defaultManager builds the manager the store's shards run by default, the
// way the harness builds it.
func defaultManager(threads int, seed uint64) *core.Manager {
	mgr, err := harness.Config{Manager: kv.DefaultManager, Threads: threads, Seed: seed}.NewManager()
	if err != nil {
		panic(err) // the default manager is registered by definition
	}
	return mgr.(*core.Manager) // and a window variant
}

// treeReplay runs the clients' streams on the rig's p threads. The store keeps its transactions' TxInfo and its
// managers to itself, so this is where the kv workloads' waste, response
// time, tree conflict and frame-clock figures come from: the same commands
// meeting the same trees and manager, one level below the session.
func (lp *layerProbe) treeReplay() {
	rig, mgr := lp.rig, lp.mgr
	var before [3]uint64
	for _, t := range rig.trees {
		a, b, c := t.Stats()
		before[0], before[1], before[2] = before[0]+a, before[1]+b, before[2]+c
	}
	mgr0 := readManager(mgr)

	workers := make([]*rigWorker, lp.p)
	done := make([]int64, lp.p)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := range workers {
		w := rig.worker(i, lp.streams[i])
		workers[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := w.st.ops
			for pos := 0; !stop.Load(); pos = (pos + 1) % len(ops) {
				w.do(&ops[pos])
				done[i]++
			}
		}(i)
	}
	time.Sleep(lp.shape.probe)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)

	var acc txAccum
	var ops int64
	for i, w := range workers {
		acc.merge(&w.acc)
		ops += done[i]
	}
	var after [3]uint64
	for _, t := range rig.trees {
		a, b, c := t.Stats()
		after[0], after[1], after[2] = after[0]+a, after[1]+b, after[2]+c
	}
	kop := float64(ops) / 1e3
	lp.m.set("txbtree.semantic_conflicts_per_kop", float64(after[0]-before[0])/kop)
	lp.m.set("txbtree.structural_ops_per_kop", float64(after[1]-before[1])/kop)
	lp.m.set("txbtree.false_conflicts_avoided_per_kop", float64(after[2]-before[2])/kop)
	acc.emit(lp.m)
	emitManager(lp.m, mgr0, readManager(mgr), acc.commits, elapsed)
}

// managerCounts is a reading of a window manager's cumulative counters.
type managerCounts struct {
	frame, bad, collisions, fallbacks int64
}

func readManager(mgr *core.Manager) managerCounts {
	return managerCounts{mgr.CurrentFrame(), mgr.BadEvents(), mgr.PriorityCollisions(), mgr.FallbackCommits()}
}

// emitManager sets the window manager's metrics from two readings.
func emitManager(m *metricSet, a, b managerCounts, commits int64, elapsed time.Duration) {
	kcommit := float64(commits) / 1e3
	if kcommit == 0 {
		return
	}
	m.set("core.frames_per_s", float64(b.frame-a.frame)/elapsed.Seconds())
	m.set("core.bad_events_per_kcommit", float64(b.bad-a.bad)/kcommit)
	m.set("core.priority_collisions_per_kcommit", float64(b.collisions-a.collisions)/kcommit)
	m.set("core.fallback_commits", float64(b.fallbacks-a.fallbacks))
}

// stmFloor times the two smallest transactions there are, under no manager
// and under the default window manager; the difference of the empty ones is
// what the manager's Begin and Committed hooks cost every transaction.
func stmFloor(m *metricSet, div int) {
	n := (1 << 18) / div
	run := func(cm stm.ContentionManager, fn func(*stm.Tx)) float64 {
		th := stm.New(1, cm).Thread(0)
		return medianNsPerOp(replayReps, n, func() {
			for i := 0; i < n; i++ {
				th.Atomic(fn)
			}
		})
	}
	empty := func(*stm.Tx) {}
	cell := stm.NewTVar[int64](0)
	rw1 := func(tx *stm.Tx) { stm.Write(tx, cell, stm.Read(tx, cell)+1) }
	floor := run(nopCM{}, empty)
	m.set("stm.atomic_empty_ns", floor)
	m.set("stm.atomic_rw1_ns", run(nopCM{}, rw1))
	m.set("core.tx_overhead_ns", run(defaultManager(1, 0), empty)-floor)
}
