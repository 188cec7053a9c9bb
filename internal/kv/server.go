package kv

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
)

// Buffer sizing for one connection: the read buffer bounds a request
// line (a full MaxMultiKeys MSET is ~2.6 KB, so 32 KB is generous), the
// write buffer batches replies until the pipeline drains or the
// threshold is hit.
const (
	connBufSize    = 32 << 10
	flushThreshold = 16 << 10
)

// Server serves the kv wire protocol over a listener. One goroutine per
// connection; each connection owns a Session, one reused read buffer and
// one reused write buffer, so the steady-state request path performs no
// allocation — replies batch in the write buffer and flush only when the
// pipeline is drained (no more buffered requests) or the threshold is
// reached.
type Server struct {
	st     *Store
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// Serve starts serving st on ln in background goroutines and returns
// immediately. Close stops the listener and every open connection.
func Serve(st *Store, ln net.Listener) *Server {
	s := &Server{st: st, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address (handy with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every connection and waits for the
// handlers to drain. The store itself is not closed.
func (s *Server) Close() error {
	s.closed.Store(true)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// connState is one connection's reusable machinery: the session, the
// parsed-request staging and the multi-key reply scratch. Allocated once
// at accept; nothing else on the request path allocates.
type connState struct {
	se   *Session
	req  request
	vals [MaxMultiKeys]int64
	ok   [MaxMultiKeys]bool
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cs := &connState{se: s.st.NewSession()}
	r := bufio.NewReaderSize(conn, connBufSize)
	wbuf := make([]byte, 0, connBufSize)
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			// Replies to complete commands may still be batched behind
			// a partial next line; the client is owed them whatever
			// ended the read.
			if err == bufio.ErrBufferFull {
				wbuf = appendError(wbuf, errLineLen.Error())
			}
			if len(wbuf) > 0 {
				conn.Write(wbuf) // best effort: the connection closes either way
			}
			return
		}
		line = line[:len(line)-1]
		if perr := parseRequest(line, &cs.req); perr != nil {
			wbuf = appendError(wbuf, perr.Error())
		} else {
			wbuf = cs.execute(wbuf)
		}
		// Batch replies while the client pipeline has more requests
		// buffered; flush when it drains (the client is now waiting) or
		// the batch is large enough.
		if r.Buffered() == 0 || len(wbuf) >= flushThreshold {
			if _, err := conn.Write(wbuf); err != nil {
				return
			}
			wbuf = wbuf[:0]
		}
	}
}

// execute runs the staged request against the session and appends the
// reply to dst.
func (cs *connState) execute(dst []byte) []byte {
	se, req := cs.se, &cs.req
	switch req.cmd {
	case cmdPing:
		return appendSimple(dst, "PONG")
	case cmdGet:
		if v, ok := se.Get(req.key); ok {
			return appendInt(dst, v)
		}
		return appendNil(dst)
	case cmdSet:
		se.Set(req.key, req.val)
		return appendSimple(dst, "OK")
	case cmdDel:
		if se.Del(req.key) {
			return appendInt(dst, 1)
		}
		return appendInt(dst, 0)
	case cmdMGet:
		if err := se.MGet(req.keys[:req.nk], cs.vals[:req.nk], cs.ok[:req.nk]); err != nil {
			return appendError(dst, err.Error())
		}
		dst = appendArray(dst, req.nk)
		for i := 0; i < req.nk; i++ {
			if cs.ok[i] {
				dst = appendInt(dst, cs.vals[i])
			} else {
				dst = appendNil(dst)
			}
		}
		return dst
	case cmdMSet:
		if err := se.MSet(req.keys[:req.nk], req.vals[:req.nk]); err != nil {
			return appendError(dst, err.Error())
		}
		return appendSimple(dst, "OK")
	case cmdScan:
		n, err := se.Scan(req.lo, req.hi, req.limit)
		if err != nil {
			return appendError(dst, err.Error())
		}
		dst = appendArray(dst, 2*n)
		keys, vals := se.ScanKeys(), se.ScanVals()
		for i := 0; i < n; i++ {
			dst = appendInt(dst, keys[i])
			dst = appendInt(dst, vals[i])
		}
		return dst
	}
	return appendError(dst, errUnknown.Error())
}
