package txtrace

import "sync/atomic"

// Ring is a bounded single-producer/single-consumer event queue. The
// producer is the thread the events describe (probe hooks run on the
// subject's thread); the consumer is whoever drains — the Collector
// serializes drains behind its own mutex, preserving the single-consumer
// contract without the producer ever seeing a lock.
//
// Protocol: the producer writes the slot with a plain store, then
// publishes it with one atomic bump of tail; the consumer copies [head,
// tail) and then advances head atomically. Each cursor has a single
// writer, so plain loads of one's own cursor are exact, and Go's
// sequentially consistent atomics give the two cross-edges that make the
// slot accesses race-free: the producer's tail store happens-after its
// slot write (consumer reads only published slots), and the consumer's
// head store happens-after its slot reads (the producer reuses a slot only
// after observing head past it).
//
// When the ring is full the producer drops the NEW event and counts it —
// never overwrites — because overwriting would race the consumer's copy of
// the oldest slot. Rings are sized so drops mean the collector stopped
// polling, not that the workload burst; Dropped makes the loss auditable
// either way.
type Ring struct {
	_       [128]byte
	tail    atomic.Uint64 // producer-owned: next slot to write
	dropped atomic.Uint64 // producer-owned: events rejected at capacity
	// cachedHead is the producer's stale copy of head. The producer
	// refreshes it from head only when the ring looks full against the
	// cache, so the common-case Push never reads the consumer's cache
	// line. Staleness is safe: head only advances, so a pass against the
	// cache is a pass against the truth.
	cachedHead uint64
	_          [104]byte
	head       atomic.Uint64 // consumer-owned: next slot to read
	_          [120]byte
	buf        []Event
	mask       uint64
}

// NewRing returns a ring holding capacity events, rounded up to a power of
// two (minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{buf: make([]Event, n), mask: uint64(n - 1)}
}

// Cap returns the ring's slot count.
func (r *Ring) Cap() int { return len(r.buf) }

// Push records e, or drops it (counted) when the ring is full. Producer
// side only. It never allocates and never blocks.
func (r *Ring) Push(e Event) bool {
	t := r.tail.Load()
	if t-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= uint64(len(r.buf)) {
			r.dropped.Add(1)
			return false
		}
	}
	r.buf[t&r.mask] = e
	r.tail.Store(t + 1)
	return true
}

// Drain appends every published event to dst and consumes them. Consumer
// side only; concurrent Push calls are fine (events published after the
// tail load are left for the next drain).
func (r *Ring) Drain(dst []Event) []Event {
	h, t := r.head.Load(), r.tail.Load()
	for ; h != t; h++ {
		dst = append(dst, r.buf[h&r.mask])
	}
	r.head.Store(h)
	return dst
}

// Dropped reports how many events were rejected because the ring was full.
func (r *Ring) Dropped() uint64 { return r.dropped.Load() }
