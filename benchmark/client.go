package main

import (
	"fmt"
	"net"
	"sync/atomic"

	"wincm/internal/kv"
)

// client is one closed-loop connection: it queues depth commands from its
// stream, flushes them in one write, then reads and verifies the depth
// replies before queueing the next batch. A client is driven by one
// goroutine; the sampler reads only the atomic counters.
type client struct {
	id    int
	ks    *keyspace
	st    *stream
	pos   int
	cl    *kv.Client
	depth int
	batch []*op

	keys, vals   [kv.MaxMultiKeys]int64
	skeys, svals []int64

	// local tallies, published to the atomics after every batch.
	n       [numClasses]int64
	nfailed int64
	ops     [numClasses]atomic.Int64
	failed  atomic.Int64

	// Traced batches only.
	batches                int64
	genNs, flushNs, waitNs int64
	lat                    recorder
	log                    *spanLog
}

func newClient(id int, conn net.Conn, ks *keyspace, st *stream, depth int) *client {
	return &client{
		id: id, ks: ks, st: st, cl: kv.NewClient(conn), depth: depth,
		batch: make([]*op, depth),
		skeys: make([]int64, 0, ks.span), svals: make([]int64, 0, ks.span),
	}
}

// queue appends one command to the connection's write buffer.
func (c *client) queue(o *op) {
	switch o.class {
	case clGet:
		c.cl.QueueGet(int64(o.key))
	case clSet:
		c.cl.QueueSet(int64(o.key), encodeVal(int(o.key), o.nonce))
	case clMGet:
		c.st.mgetKeys(o, c.ks, c.keys[:])
		c.cl.QueueMGet(c.keys[:c.ks.mkeys])
	case clMSet:
		msetPairs(o, c.ks, c.keys[:], c.vals[:])
		c.cl.QueueMSet(c.keys[:c.ks.mkeys], c.vals[:c.ks.mkeys])
	case clScan:
		c.cl.QueueScan(int64(o.key), int64(o.key)+int64(c.ks.span), c.ks.span)
	}
}

// verify checks one reply against the command it answers.
func (c *client) verify(o *op, rep *kv.Reply) bool {
	switch o.class {
	case clGet:
		return rep.Kind == kv.ReplyInt && c.ks.checkGet(int(o.key), rep.Int, true)
	case clSet, clMSet:
		return rep.Kind == kv.ReplySimple
	case clMGet:
		if rep.Kind != kv.ReplyArray {
			return false
		}
		c.st.mgetKeys(o, c.ks, c.keys[:])
		return c.ks.checkMGet(c.keys[:c.ks.mkeys], rep.Vals, rep.Present, o.whole)
	case clScan:
		if rep.Kind != kv.ReplyArray || len(rep.Vals)%2 != 0 {
			return false
		}
		c.skeys, c.svals = c.skeys[:0], c.svals[:0]
		for i := 0; i < len(rep.Vals); i += 2 {
			if !rep.Present[i] || !rep.Present[i+1] {
				return false
			}
			c.skeys = append(c.skeys, rep.Vals[i])
			c.svals = append(c.svals, rep.Vals[i+1])
		}
		return c.ks.checkScan(int(o.key), int(o.key)+c.ks.span, c.skeys, c.svals)
	}
	return false
}

// roundTrip runs one batch. With traced set it times the three phases, keeps
// the batch latency (flush start to last verified reply) and, one batch in
// sampleEvery, records spans.
func (c *client) roundTrip(traced bool) error {
	var t0, t1, t2, t3 int64
	if traced {
		t0 = nowNs()
	}
	for d := range c.batch {
		o := &c.st.ops[c.pos]
		if c.pos++; c.pos == len(c.st.ops) {
			c.pos = 0
		}
		c.batch[d] = o
		c.queue(o)
	}
	if traced {
		t1 = nowNs()
	}
	if err := c.cl.Flush(); err != nil {
		return fmt.Errorf("client %d: flush: %w", c.id, err)
	}
	if traced {
		t2 = nowNs()
	}
	var rep kv.Reply
	for _, o := range c.batch {
		if err := c.cl.ReadReply(&rep); err != nil {
			return fmt.Errorf("client %d: reply: %w", c.id, err)
		}
		if c.verify(o, &rep) {
			c.n[o.class]++
		} else {
			c.nfailed++
		}
	}
	if traced {
		t3 = nowNs()
		c.genNs += t1 - t0
		c.flushNs += t2 - t1
		c.waitNs += t3 - t2
		c.lat.add(t3 - t1)
		if c.batches%sampleEvery == 0 && c.log != nil {
			id := int64(c.id)<<40 | c.batches
			root := c.log.add(spBatch, -1, t0, t3, id)
			c.log.add(spGen, root, t0, t1, id)
			c.log.add(spFlush, root, t1, t2, id)
			c.log.add(spWait, root, t2, t3, id)
		}
		c.batches++
	}
	for i := range c.n {
		c.ops[i].Store(c.n[i])
	}
	c.failed.Store(c.nfailed)
	return nil
}

// loop sends batches until stop is set; tracing is re-read every batch so
// the sampler can switch it per window.
func (c *client) loop(stop, tracing *atomic.Bool) error {
	for !stop.Load() {
		if err := c.roundTrip(tracing.Load()); err != nil {
			return err
		}
	}
	return nil
}

// total is the number of verified replies so far.
func (c *client) total() (ok, failed int64) {
	for i := range c.ops {
		ok += c.ops[i].Load()
	}
	return ok, c.failed.Load()
}
