package kv

import (
	"net"
	"testing"
)

// benchStore builds the benchmark store: 4 shards, 2 threads each, the
// default window manager.
func benchStore(b *testing.B) *Store {
	b.Helper()
	st, err := NewStore(Options{Shards: 4, ShardThreads: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(st.Close)
	return st
}

// BenchmarkKVLocalOp measures the in-process request path — session,
// thread claim, STM transaction, tree operation, stats — without the
// wire. Neither path allocates (TestLocalGetZeroAlloc,
// TestLocalSetZeroAlloc): the tree's key locks are records from a
// per-thread slab, linked into the leaf that covers the key.
func BenchmarkKVLocalOp(b *testing.B) {
	b.Run("get", func(b *testing.B) {
		st := benchStore(b)
		se := st.NewSession()
		for k := int64(0); k < 1024; k++ {
			se.Set(k, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			se.Get(int64(i) & 1023)
		}
	})
	// One session per goroutine: with the preference rule each keeps its
	// own thread on every shard.
	b.Run("get-parallel", func(b *testing.B) {
		st := benchStore(b)
		se := st.NewSession()
		for k := int64(0); k < 1024; k++ {
			se.Set(k, k)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			se := st.NewSession()
			for i := int64(0); pb.Next(); i++ {
				se.Get(i & 1023)
			}
		})
	})
	b.Run("set", func(b *testing.B) {
		st := benchStore(b)
		se := st.NewSession()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			se.Set(int64(i)&1023, int64(i))
		}
	})
	b.Run("mget4", func(b *testing.B) {
		st := benchStore(b)
		se := st.NewSession()
		for k := int64(0); k < 1024; k++ {
			se.Set(k, k)
		}
		keys := []int64{1, 257, 513, 769}
		vals := make([]int64, 4)
		present := make([]bool, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := se.MGet(keys, vals, present); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKVPipelined measures the full wire path over a loopback TCP
// connection at pipeline depth 64: request encode, server parse,
// transaction, reply encode, batched flush. Reported per operation.
func BenchmarkKVPipelined(b *testing.B) {
	st := benchStore(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := Serve(st, ln)
	b.Cleanup(func() { srv.Close() })
	se := st.NewSession()
	for k := int64(0); k < 1024; k++ {
		se.Set(k, k)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	const depth = 64
	var rep Reply
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		for j := 0; j < depth; j++ {
			c.QueueGet(int64(i+j) & 1023)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < depth; j++ {
			if err := c.ReadReply(&rep); err != nil {
				b.Fatal(err)
			}
		}
	}
}
