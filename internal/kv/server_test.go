package kv

import (
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"wincm/internal/telemetry"
)

// startServer brings up a store and server on a loopback listener.
func startServer(t *testing.T, o Options) (*Store, *Server) {
	t.Helper()
	st := testStore(t, o)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(st, ln)
	t.Cleanup(func() { srv.Close() })
	return st, srv
}

// roundTrip flushes what is queued on c and reads its one reply.
func roundTrip(c *Client) (Reply, error) {
	var rep Reply
	if err := c.Flush(); err != nil {
		return rep, err
	}
	err := c.ReadReply(&rep)
	return rep, err
}

// TestServerEndToEnd exercises every command over a real TCP connection:
// each step queues one request, and its reply must pass the step's check.
func TestServerEndToEnd(t *testing.T) {
	_, srv := startServer(t, Options{Shards: 4, ShardThreads: 2})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ok := func(r Reply) bool { return r.Kind == ReplySimple }
	isInt := func(v int64) func(Reply) bool {
		return func(r Reply) bool { return r.Kind == ReplyInt && r.Int == v }
	}
	for _, step := range []struct {
		name  string
		queue func()
		check func(Reply) bool
	}{
		{"PING", c.QueuePing, ok},
		{"GET missing", func() { c.QueueGet(1) }, func(r Reply) bool { return r.Kind == ReplyNil }},
		{"SET", func() { c.QueueSet(1, 100) }, ok},
		{"GET", func() { c.QueueGet(1) }, isInt(100)},
		{"MSET", func() { c.QueueMSet([]int64{2, 3, 4}, []int64{20, 30, 40}) }, ok},
		{"MGET", func() { c.QueueMGet([]int64{1, 2, 9}) }, func(r Reply) bool {
			return r.Kind == ReplyArray && slices.Equal(r.Vals, []int64{100, 20, 0}) &&
				slices.Equal(r.Present, []bool{true, true, false})
		}},
		{"SCAN", func() { c.QueueScan(0, 10, 100) }, func(r Reply) bool {
			return r.Kind == ReplyArray && slices.Equal(r.Vals, []int64{1, 100, 2, 20, 3, 30, 4, 40})
		}},
		{"DEL", func() { c.QueueDel(1) }, isInt(1)},
		{"DEL missing", func() { c.QueueDel(1) }, isInt(0)},
	} {
		step.queue()
		if rep, err := roundTrip(c); err != nil || !step.check(rep) {
			t.Fatalf("%s: reply %+v, err %v", step.name, rep, err)
		}
	}
}

// TestServerErrors: malformed requests get -ERR replies and the
// connection keeps working.
func TestServerErrors(t *testing.T) {
	_, srv := startServer(t, Options{Shards: 2, ShardThreads: 1})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, bad := range []string{"HELLO\n", "GET\n", "GET x\n", "SCAN 0 99999 10\n", "\n"} {
		if _, err := c.conn.Write([]byte(bad)); err != nil {
			t.Fatal(err)
		}
		var rep Reply
		if err := c.ReadReply(&rep); err != nil {
			t.Fatalf("reading reply to %q: %v", bad, err)
		}
		if rep.Kind != ReplyError {
			t.Fatalf("reply to %q = kind %d, want error", bad, rep.Kind)
		}
	}
	// Still alive.
	c.QueuePing()
	if rep, err := roundTrip(c); err != nil || rep.Kind != ReplySimple {
		t.Fatalf("PING after errors: reply %+v, err %v", rep, err)
	}
}

// TestServerFlushesRepliesBeforeClosing: replies to complete commands are
// batched while more request bytes are buffered, so when the read then
// fails — the peer half-closes after an unterminated line, or the line
// outgrows the read buffer — the handler must flush them before it returns.
func TestServerFlushesRepliesBeforeClosing(t *testing.T) {
	for _, tc := range []struct{ name, tail, want string }{
		{"unterminated tail", "GET 1", "+OK\r\n"},
		// Exactly one read buffer of tail: the server has consumed every
		// byte when it gives up, so its close cannot reset the connection
		// under the reply.
		{"oversized line", strings.Repeat("x", connBufSize), "+OK\r\n-ERR " + errLineLen.Error() + "\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, srv := startServer(t, Options{Shards: 2, ShardThreads: 1})
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write([]byte("SET 1 100\n" + tc.tail)); err != nil {
				t.Fatal(err)
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(conn)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
}

// TestAbandonedPipelineLeaksNothing: a client that goes away mid-pipeline —
// a half-written MSET line behind complete commands, cross-shard ones
// included — costs the store nothing: the complete commands ran, the cut one
// did not, and once the handler has returned every shard's thread pool is
// full and every cross-shard lock is free.
func TestAbandonedPipelineLeaksNothing(t *testing.T) {
	const pipeline = "SET 1 100\nMSET 2 20 3 30 4 40\nMGET 1 2 3\nSCAN 0 10 10\nGET 1\nMSET 5 50 6"
	for _, tc := range []struct {
		name string
		// leave ends the connection and returns once the handler has too.
		leave func(t *testing.T, conn *net.TCPConn, srv *Server)
	}{
		// The write side closes; reading to EOF waits for the handler to
		// run every complete command and close its end.
		{"half close", func(t *testing.T, conn *net.TCPConn, srv *Server) {
			if err := conn.CloseWrite(); err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(conn)
			if err != nil {
				t.Fatal(err)
			}
			if want := "+OK\r\n+OK\r\n*3\r\n:100\r\n:20\r\n:30\r\n*8\r\n"; !strings.HasPrefix(string(got), want) || !strings.HasSuffix(string(got), ":40\r\n:100\r\n") {
				t.Errorf("replies = %q, want %q ... :40 :100", got, want)
			}
		}},
		// Both sides close with the replies unread, so the handler's flush
		// hits a dead peer; Server.Close waits for it to return.
		{"full close", func(t *testing.T, conn *net.TCPConn, srv *Server) {
			conn.Close()
			srv.Close()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, srv := startServer(t, Options{Shards: 4, ShardThreads: 2})
			conn, err := net.Dial("tcp", srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			// A round trip first, so the handler is known to be serving
			// this connection when the pipeline lands.
			pong := make([]byte, len("+PONG\r\n"))
			if _, err := conn.Write([]byte("PING\n")); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(conn, pong); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write([]byte(pipeline)); err != nil {
				t.Fatal(err)
			}
			tc.leave(t, conn.(*net.TCPConn), srv)
			for i, sh := range st.shards {
				if idle := sh.idle(); idle != len(sh.slots) {
					t.Errorf("shard %d: %d of %d threads back in the pool", i, idle, len(sh.slots))
				}
				for j := range sh.slots {
					x := &sh.slots[j].xmu
					if !x.TryLock() {
						t.Errorf("shard %d: slot %d's share of the cross-shard lock still held", i, j)
						continue
					}
					x.Unlock()
				}
			}
			if _, ok := st.NewSession().Get(5); ok {
				t.Error("the half-written MSET was executed")
			}
		})
	}
}

// TestServerPipelined queues a deep batch before reading anything: the
// server must batch replies and answer in order.
func TestServerPipelined(t *testing.T) {
	_, srv := startServer(t, Options{Shards: 4, ShardThreads: 2})
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const depth = 256
	for i := 0; i < depth; i++ {
		c.QueueSet(int64(i), int64(i*2))
	}
	for i := 0; i < depth; i++ {
		c.QueueGet(int64(i))
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var rep Reply
	for i := 0; i < depth; i++ {
		if err := c.ReadReply(&rep); err != nil || rep.Kind != ReplySimple {
			t.Fatalf("SET reply %d: %v kind %d", i, err, rep.Kind)
		}
	}
	for i := 0; i < depth; i++ {
		if err := c.ReadReply(&rep); err != nil || rep.Kind != ReplyInt || rep.Int != int64(i*2) {
			t.Fatalf("GET reply %d = %d (kind %d, err %v), want %d", i, rep.Int, rep.Kind, err, i*2)
		}
	}
}

// TestPipelinedRoundTripZeroAlloc: a depth-64 GET pipeline over loopback
// TCP — request encode, server parse, transaction, reply encode, batched
// flush, reply decode — allocates nothing on either side once the buffers
// are warm (AllocsPerRun counts every goroutine's mallocs, the server's
// handler included).
func TestPipelinedRoundTripZeroAlloc(t *testing.T) {
	st, srv := startServer(t, Options{Shards: 4, ShardThreads: 2, Seed: 1})
	se := st.NewSession()
	for k := int64(0); k < 1024; k++ {
		se.Set(k, k)
	}
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const depth = 64
	var rep Reply
	base := int64(0)
	batch := func() {
		for j := int64(0); j < depth; j++ {
			c.QueueGet((base + j) & 1023)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		for j := int64(0); j < depth; j++ {
			if err := c.ReadReply(&rep); err != nil || rep.Kind != ReplyInt || rep.Int != (base+j)&1023 {
				t.Fatalf("GET %d = %d (kind %d, err %v)", (base+j)&1023, rep.Int, rep.Kind, err)
			}
		}
		base += depth
	}
	for i := 0; i < 16; i++ { // touch every key once: buffers and scratch warm
		batch()
	}
	if n := testing.AllocsPerRun(50, batch); n != 0 {
		t.Errorf("pipelined GET batch of %d allocates %.1f per run, want 0", depth, n)
	}
}

// TestServerConcurrentClients: many connections hammering overlapping
// keys, including cross-shard MSETs, all finish and the store stays
// consistent.
func TestServerConcurrentClients(t *testing.T) {
	st, srv := startServer(t, Options{Shards: 4, ShardThreads: 2})
	yieldEvery(st, 4)
	const clients = 6
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 150; i++ {
				k := int64(i % 10)
				okKind := func(kind ReplyKind) bool { return kind == ReplySimple }
				switch i % 3 {
				case 0:
					c.QueueSet(k, int64(id))
				case 1:
					c.QueueGet(k)
					okKind = func(kind ReplyKind) bool { return kind == ReplyInt || kind == ReplyNil }
				case 2:
					c.QueueMSet([]int64{k, k + 100}, []int64{int64(i), int64(-i)})
				}
				if rep, err := roundTrip(c); err != nil || !okKind(rep.Kind) {
					t.Errorf("request %d: reply %+v, err %v", i, rep, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	if stats := st.Stats(); stats.Commits == 0 || stats.WatchdogTrips != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestStoreGauges wires the store into a telemetry registry and checks
// the labeled per-shard series render and move, and that every published
// count is the one its owner keeps: the shard gauges are the runtimes'
// (Store.Stats), the tree series are the trees' own Stats.
func TestStoreGauges(t *testing.T) {
	st := testStore(t, Options{Shards: 2, ShardThreads: 2})
	r := telemetry.NewRegistry()
	RegisterStoreGauges(r, st)
	se := st.NewSession()
	for k := int64(0); k < 64; k++ {
		se.Set(k, k)
	}
	snap := r.Snapshot()
	var commits float64
	for i := 0; i < 2; i++ {
		commits += snap.Gauges[`wincm_kv_shard_commits{shard="`+string(rune('0'+i))+`"}`]
	}
	if commits != 64 {
		t.Fatalf("summed shard commit gauges = %v, want 64", commits)
	}
	if snap.Gauges["wincm_kv_shards"] != 2 {
		t.Fatalf("shard-count gauge = %v", snap.Gauges["wincm_kv_shards"])
	}

	// Enough keys to split leaves on both shards, then two sessions
	// racing on one hot key for key-level conflicts and aborts.
	for k := int64(64); k < 1024; k++ {
		se.Set(k, k)
	}
	yieldEvery(st, 1)
	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := st.NewSession()
			for i := 0; i < 500; i++ {
				s.Set(7, int64(id))
			}
		}(id)
	}
	wg.Wait()

	snap = r.Snapshot()
	var tree [3]uint64
	for _, sh := range st.shards {
		a, b, c := sh.tree.Stats()
		tree[0], tree[1], tree[2] = tree[0]+a, tree[1]+b, tree[2]+c
	}
	if tree[1] == 0 {
		t.Fatal("1,024 keys over 2 shards split no leaf")
	}
	for i, name := range []string{
		"wincm_btree_semantic_conflicts_total",
		"wincm_btree_structural_ops_total",
		"wincm_btree_false_conflicts_avoided_total",
	} {
		if got := snap.Gauges[name]; got != float64(tree[i]) {
			t.Errorf("%s = %v, want the trees' %d", name, got, tree[i])
		}
	}
	stats := st.Stats()
	for i, ps := range stats.PerShard {
		shard := `{shard="` + string(rune('0'+i)) + `"}`
		if got := snap.Gauges["wincm_kv_shard_commits"+shard]; got != float64(ps.Commits) {
			t.Errorf("wincm_kv_shard_commits%s = %v, want Stats' %d", shard, got, ps.Commits)
		}
		if got := snap.Gauges["wincm_kv_shard_aborts"+shard]; got != float64(ps.Aborts) {
			t.Errorf("wincm_kv_shard_aborts%s = %v, want Stats' %d", shard, got, ps.Aborts)
		}
	}
	if stats.Commits != 64+960+1000 {
		t.Errorf("Stats().Commits = %d, want %d", stats.Commits, 64+960+1000)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`wincm_kv_shard_commits{shard="0"}`,
		`wincm_kv_shard_commits{shard="1"}`,
		`wincm_kv_shard_aborts{shard="0"}`,
		`wincm_kv_shard_occupancy{shard="1"}`,
		`wincm_kv_pool_idle{shard="0"} 2`,
		`wincm_kv_pool_idle{shard="1"} 2`,
		"wincm_kv_watchdog_trips_total 0",
		"wincm_btree_structural_ops_total ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# TYPE wincm_kv_shard_commits gauge"); got != 1 {
		t.Fatalf("TYPE header count = %d", got)
	}
}
