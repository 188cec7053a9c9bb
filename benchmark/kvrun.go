package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"wincm/internal/kv"
)

// buildStore is the kv set-up a user waits for: the store's shards and the
// preload of every key, group range by MSET (nonce 0) and single range by
// SET, from p sessions over disjoint key slices.
func buildStore(s spec, seed uint64, p int) (*kv.Store, error) {
	st, err := kv.NewStore(kv.Options{Shards: s.shards, ShardThreads: s.threads, Seed: seed})
	if err != nil {
		return nil, err
	}
	group := s.groupKeys()
	units := s.keys / s.mkeys // slice boundaries fall on group boundaries
	errs := make([]error, p)
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		lo, hi := units*w/p*s.mkeys, units*(w+1)/p*s.mkeys
		if w == p-1 {
			hi = s.keys
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			se := st.NewSession()
			keys := make([]int64, s.mkeys)
			vals := make([]int64, s.mkeys)
			for k := lo; k < hi; {
				if k < group {
					for j := range keys {
						keys[j], vals[j] = int64(k+j), encodeVal(k+j, 0)
					}
					if err := se.MSet(keys, vals); err != nil {
						errs[w] = err
						return
					}
					k += s.mkeys
				} else {
					se.Set(int64(k), encodeVal(k, 0))
					k++
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.Close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	return st, nil
}

// verifyStore reads the whole keyspace back in scans and applies the scan
// check to each: every key present, every value naming its key, every group
// under one nonce.
func verifyStore(st *kv.Store, ks *keyspace) error {
	se := st.NewSession()
	// A chunk is a whole number of groups so that every group is wholly
	// inside one scan.
	chunk := kv.MaxScanSpan / ks.mkeys * ks.mkeys
	for lo := 0; lo < ks.keys; lo += chunk {
		hi := lo + chunk
		if _, err := se.Scan(int64(lo), int64(hi), chunk); err != nil {
			return fmt.Errorf("verify scan [%d,%d): %w", lo, hi, err)
		}
		if !ks.checkScan(lo, hi, se.ScanKeys(), se.ScanVals()) {
			return fmt.Errorf("verify scan [%d,%d): store contents fail the reply check", lo, hi)
		}
	}
	return nil
}

// kvSystem is the system under test of the kv workloads: the store behind
// kv.Serve on a loopback listener, exactly what cmd/winkv runs after flag
// parsing.
type kvSystem struct {
	spec spec
	ks   *keyspace
	st   *kv.Store
	srv  *kv.Server
}

func startKV(s spec, ks *keyspace, st *kv.Store) (*kvSystem, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &kvSystem{spec: s, ks: ks, st: st, srv: kv.Serve(st, ln)}, nil
}

func (sys *kvSystem) dial() (net.Conn, error) {
	return net.Dial("tcp", sys.srv.Addr().String())
}

func (sys *kvSystem) close() {
	sys.srv.Close()
	sys.st.Close()
}

// window is what the sampler saw between two boundaries.
type window struct {
	dur    time.Duration
	ops    [numClasses]int64
	traced bool
}

func (w window) total() (n int64) {
	for _, c := range w.ops {
		n += c
	}
	return n
}

func (w window) opsPerSec() float64 { return float64(w.total()) / w.dur.Seconds() }

// loadRun is a closed-loop run in progress: p clients on their own
// goroutines and the flags that steer them.
type loadRun struct {
	clients []*client
	stop    atomic.Bool
	tracing atomic.Bool
	wg      sync.WaitGroup
	errs    []error
}

// startLoad connects one client per stream and starts their loops.
func startLoad(sys *kvSystem, streams []*stream, withSpans bool) (*loadRun, error) {
	lr := &loadRun{errs: make([]error, len(streams))}
	for i, st := range streams {
		conn, err := sys.dial()
		if err != nil {
			lr.halt()
			return nil, err
		}
		c := newClient(i, conn, sys.ks, st, sys.spec.depth)
		if withSpans {
			c.log = newSpanLog(i, 1<<16)
		}
		lr.clients = append(lr.clients, c)
	}
	for i, c := range lr.clients {
		lr.wg.Add(1)
		go func(i int, c *client) {
			defer lr.wg.Done()
			lr.errs[i] = c.loop(&lr.stop, &lr.tracing)
		}(i, c)
	}
	return lr, nil
}

// halt stops the clients, waits for them and closes their connections.
func (lr *loadRun) halt() error {
	lr.stop.Store(true)
	lr.wg.Wait()
	for _, c := range lr.clients {
		c.cl.Close()
	}
	return errors.Join(lr.errs...)
}

// counts reads the clients' published per-class totals.
func (lr *loadRun) counts() (ops [numClasses]int64) {
	for _, c := range lr.clients {
		for i := range ops {
			ops[i] += c.ops[i].Load()
		}
	}
	return ops
}

// totals sums the verified and the failed replies of every client.
func (lr *loadRun) totals() (ok, failed int64) {
	for _, c := range lr.clients {
		o, f := c.total()
		ok += o
		failed += f
	}
	return ok, failed
}
