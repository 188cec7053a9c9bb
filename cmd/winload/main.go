// Command winload drives a winkv server with closed-loop sessions: each
// session is one TCP connection issuing requests back-to-back (optionally
// pipelined -depth deep), with keys drawn from a Zipfian distribution
// over -keys and the operation picked from the -get/-set/-mget/-mset/
// -scan weight mix. Multi-key operations draw independent Zipfian keys,
// so under more than one shard they exercise the cross-shard commit
// path.
//
// At the end it reports aggregate committed operations per second and
// client-observed latency quantiles (p50/p99/p999) per operation class,
// from log2-bucketed nanosecond histograms recorded client-side.
//
//	$ winkv -addr 127.0.0.1:6380 &
//	$ winload -addr 127.0.0.1:6380 -sessions 64 -keys 1000000 -theta 0.9 -dur 10s
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"wincm/internal/kv"
	"wincm/internal/rng"
	"wincm/internal/telemetry"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "winload: "+format+"\n", args...)
	os.Exit(1)
}

// opClass indexes the per-operation histograms and counters.
const (
	clGet = iota
	clSet
	clMGet
	clMSet
	clScan
	numClasses
)

var classNames = [numClasses]string{"get", "set", "mget", "mset", "scan"}

// loadConfig is the validated flag set of one run.
type loadConfig struct {
	sessions int
	keys     uint64
	theta    float64
	dur      time.Duration
	depth    int
	weights  [numClasses]float64
	mkeys    int
	span     int
	preload  uint64
}

// validate is the fail-fast layer over the raw flags: every value that
// would silently misbehave is an error naming the flag.
func (c loadConfig) validate() error {
	if c.sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1 (got %d)", c.sessions)
	}
	if c.keys == 0 {
		return fmt.Errorf("-keys must be >= 1")
	}
	if !(c.theta >= 0 && c.theta < 1) { // also rejects NaN
		return fmt.Errorf("-theta must be in [0,1) (got %g)", c.theta)
	}
	if c.dur <= 0 {
		return fmt.Errorf("-dur must be positive (got %v)", c.dur)
	}
	if c.depth < 1 {
		return fmt.Errorf("-depth must be >= 1 (got %d)", c.depth)
	}
	var wsum float64
	for i, w := range c.weights {
		if !(w >= 0 && w <= math.MaxFloat64) { // also rejects NaN and +Inf
			return fmt.Errorf("-%s weight must be finite and >= 0 (got %g)", classNames[i], w)
		}
		wsum += w
	}
	if wsum <= 0 {
		return fmt.Errorf("the operation mix is all zeros — nothing to run")
	}
	if c.mkeys < 1 || c.mkeys > kv.MaxMultiKeys {
		return fmt.Errorf("-mkeys must be in [1,%d] (got %d)", kv.MaxMultiKeys, c.mkeys)
	}
	if (c.weights[clMGet] > 0 || c.weights[clMSet] > 0) && c.mkeys == 1 {
		return fmt.Errorf("-mkeys 1 makes MGET/MSET single-key — use -get/-set instead, or -mkeys >= 2")
	}
	if c.span < 1 || c.span > kv.MaxScanSpan {
		return fmt.Errorf("-span must be in [1,%d] (got %d)", kv.MaxScanSpan, c.span)
	}
	if c.preload > c.keys {
		return fmt.Errorf("-preload %d exceeds -keys %d", c.preload, c.keys)
	}
	return nil
}

// mixThresholds converts the weights into cumulative probabilities for a
// single uniform draw.
func (c loadConfig) mixThresholds() [numClasses]float64 {
	var wsum float64
	for _, w := range c.weights {
		wsum += w
	}
	var cum [numClasses]float64
	acc := 0.0
	for i, w := range c.weights {
		acc += w / wsum
		cum[i] = acc
	}
	return cum
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:6380", "winkv server address")
		sessions = flag.Int("sessions", 16, "concurrent closed-loop sessions (one connection each)")
		keys     = flag.Uint64("keys", 1_000_000, "key-space size")
		theta    = flag.Float64("theta", 0.9, "Zipfian skew in [0,1): 0 = uniform, 0.99 = heavily skewed")
		dur      = flag.Duration("dur", 5*time.Second, "measurement duration")
		depth    = flag.Int("depth", 1, "pipeline depth per session (requests in flight per connection)")
		getW     = flag.Float64("get", 0.70, "GET weight in the operation mix")
		setW     = flag.Float64("set", 0.20, "SET weight")
		mgetW    = flag.Float64("mget", 0.04, "multi-key MGET weight")
		msetW    = flag.Float64("mset", 0.04, "multi-key MSET weight")
		scanW    = flag.Float64("scan", 0.02, "range SCAN weight")
		mkeys    = flag.Int("mkeys", 4, "keys per multi-key operation")
		span     = flag.Int("span", 16, "key span of one SCAN")
		preload  = flag.Uint64("preload", 0, "SET this many sequential keys before measuring (0 = keys/10, capped at 100k)")
		seed     = flag.Uint64("seed", 1, "master seed for the per-session generators")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}

	cfg := loadConfig{
		sessions: *sessions,
		keys:     *keys,
		theta:    *theta,
		dur:      *dur,
		depth:    *depth,
		weights:  [numClasses]float64{*getW, *setW, *mgetW, *msetW, *scanW},
		mkeys:    *mkeys,
		span:     *span,
		preload:  *preload,
	}
	// Fail fast: every value that would silently misbehave is an error.
	if err := cfg.validate(); err != nil {
		fatalf("%v", err)
	}
	cum := cfg.mixThresholds()

	// Client-side latency histograms: log2-bucketed nanoseconds, one
	// histogram per op class, one single-writer shard per session.
	reg := telemetry.NewRegistry()
	var hists [numClasses]*telemetry.Histogram
	for i, n := range classNames {
		hists[i] = reg.NewHistogram("winload_"+n+"_ns", "client latency", *sessions)
	}

	npre := *preload
	if npre == 0 {
		npre = *keys / 10
		if npre > 100_000 {
			npre = 100_000
		}
	}
	if npre > 0 {
		c, err := kv.Dial(*addr)
		if err != nil {
			fatalf("preload dial: %v", err)
		}
		const batch = 256
		done := uint64(0)
		for done < npre {
			n := npre - done
			if n > batch {
				n = batch
			}
			for j := uint64(0); j < n; j++ {
				k := int64(done + j)
				c.QueueSet(k, k)
			}
			if err := c.Flush(); err != nil {
				fatalf("preload: %v", err)
			}
			var rep kv.Reply
			for j := uint64(0); j < n; j++ {
				if err := c.ReadReply(&rep); err != nil {
					fatalf("preload reply: %v", err)
				}
			}
			done += n
		}
		c.Close()
	}

	type result struct {
		ops  [numClasses]int64
		errs int64
	}
	results := make([]result, *sessions)
	// One shared Zipf for every session, built before the measurement
	// deadline starts: the O(keys) zeta normalizer is milliseconds for
	// millions of keys, and a per-session copy after the clock started
	// would charge that setup to the measurement window. A Zipf is
	// read-only after construction (each draw's state lives in the
	// caller's Rand), so sharing it across sessions is safe.
	zipf := rng.NewZipf(*keys, *theta)
	deadline := time.Now().Add(*dur)
	var wg sync.WaitGroup
	errCh := make(chan error, *sessions)
	for s := 0; s < *sessions; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := kv.Dial(*addr)
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			r := rng.New(*seed + uint64(id)*0x9e3779b97f4a7c15 + 1)
			z := zipf
			res := &results[id]
			mk := make([]int64, *mkeys)
			mv := make([]int64, *mkeys)
			classes := make([]int, *depth)
			var rep kv.Reply
			for time.Now().Before(deadline) {
				// Queue one pipeline batch.
				for d := 0; d < *depth; d++ {
					p := r.Float64()
					cl := clScan
					for i := 0; i < numClasses; i++ {
						if p < cum[i] {
							cl = i
							break
						}
					}
					classes[d] = cl
					switch cl {
					case clGet:
						c.QueueGet(int64(z.Next(r)))
					case clSet:
						c.QueueSet(int64(z.Next(r)), int64(r.Uint64()>>1))
					case clMGet:
						for j := range mk {
							mk[j] = int64(z.Next(r))
						}
						c.QueueMGet(mk)
					case clMSet:
						for j := range mk {
							mk[j] = int64(z.Next(r))
							mv[j] = int64(r.Uint64() >> 1)
						}
						c.QueueMSet(mk, mv)
					case clScan:
						lo := int64(z.Next(r))
						c.QueueScan(lo, lo+int64(*span), *span)
					}
				}
				start := time.Now()
				if err := c.Flush(); err != nil {
					errCh <- err
					return
				}
				for d := 0; d < *depth; d++ {
					if err := c.ReadReply(&rep); err != nil {
						errCh <- err
						return
					}
					if rep.Kind == kv.ReplyError {
						res.errs++
						// Drop the request from the latency account too —
						// an errored op is not in the ops counters, so
						// recording its batch latency would skew the
						// quantiles against a denominator it isn't in.
						classes[d] = -1
						continue
					}
					res.ops[classes[d]]++
				}
				// Closed-loop latency: batch round-trip time attributed to
				// each request of the batch (at -depth 1 this is exact
				// per-request latency).
				lat := time.Since(start).Nanoseconds()
				for d := 0; d < *depth; d++ {
					if classes[d] >= 0 {
						hists[classes[d]].Observe(id, lat)
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		fatalf("session: %v", err)
	}

	var total, errs int64
	var perClass [numClasses]int64
	for i := range results {
		errs += results[i].errs
		for c, n := range results[i].ops {
			perClass[c] += n
			total += n
		}
	}
	secs := dur.Seconds()
	fmt.Printf("winload: %d sessions depth %d, %d keys theta %.2f, %v\n",
		*sessions, *depth, *keys, *theta, *dur)
	fmt.Printf("winload: %d ops (%.0f ops/s), %d errors\n", total, float64(total)/secs, errs)
	classes := make([]int, 0, numClasses)
	for c := range perClass {
		if perClass[c] > 0 {
			classes = append(classes, c)
		}
	}
	sort.Ints(classes)
	for _, c := range classes {
		snap := hists[c].Snapshot()
		fmt.Printf("winload:   %-5s %9d ops  p50 %s  p99 %s  p999 %s\n",
			classNames[c], perClass[c],
			fmtNs(snap.Quantile(0.50)), fmtNs(snap.Quantile(0.99)), fmtNs(snap.Quantile(0.999)))
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// fmtNs renders a nanosecond latency human-readably.
func fmtNs(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
