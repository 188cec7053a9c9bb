// Command winkv serves the sharded transactional key-value store over
// TCP. Every key hash-routes to one of -shards independent shards, each
// with its own STM runtime, transactional B-link tree, contention
// manager and frame clock; multi-key commands commit atomically across
// shards via the ordered two-phase acquire (internal/kv). The wire
// protocol is RESP-style inline text — try it with netcat:
//
//	$ winkv -addr 127.0.0.1:6380 &
//	$ printf 'SET 1 100\nGET 1\nMSET 2 20 3 30\nSCAN 0 10 10\n' | nc 127.0.0.1 6380
//
// With -metrics the per-shard commit/abort/occupancy gauges (read from
// each shard's STM runtime) and the B-link tree series
// wincm_btree_{semantic_conflicts,structural_ops,false_conflicts_avoided}_total
// (the shards' Tree.Stats, summed) are served on /metrics in Prometheus
// text format. On SIGINT/SIGTERM the server drains and prints final
// per-shard statistics.
//
// Serving mode is volatile: a restart starts from an empty store.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wincm/internal/kv"
	"wincm/internal/telemetry"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "winkv: "+format+"\n", args...)
	os.Exit(1)
}

// validateServe is the flag-parse fail-fast layer: positional arguments
// and an empty address are command-line errors, and the store options
// are checked here — before any socket is opened — with kv.Options'
// own validation (NewStore re-checks as the last layer). o holds what the
// flags hold, and -shards and -threads have positive defaults, so a zero
// there was typed, not left unset: an error, not kv.Options' "default".
func validateServe(addr string, args []string, o kv.Options) error {
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments: %v", args)
	}
	if addr == "" {
		return fmt.Errorf("-addr must not be empty")
	}
	if o.Shards < 1 {
		return fmt.Errorf("Shards (-shards) must be >= 1 (got %d)", o.Shards)
	}
	if o.ShardThreads < 1 {
		return fmt.Errorf("ShardThreads (-threads) must be >= 1 (got %d)", o.ShardThreads)
	}
	return o.Validate()
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:6380", "address to serve the kv protocol on")
		shards  = flag.Int("shards", 4, "number of independent shards (each its own STM runtime + manager)")
		threads = flag.Int("threads", 2, "STM threads per shard (max in-flight transactions per shard)")
		manager = flag.String("manager", kv.DefaultManager, "contention manager per shard (window variant or classic)")
		seed    = flag.Uint64("seed", 1, "master seed for the shards' managers")
		metrics = flag.String("metrics", "", "serve Prometheus /metrics (+ pprof) on this address (empty = off)")
		quiet   = flag.Bool("quiet", false, "suppress the startup and shutdown reports")
	)
	flag.Parse()

	opts := kv.Options{
		Shards:       *shards,
		ShardThreads: *threads,
		Manager:      *manager,
		Seed:         *seed,
	}
	// Fail fast at flag-parse time: kv.Options rejects every combination
	// that would silently do nothing (same contract as NewStore below).
	if err := validateServe(*addr, flag.Args(), opts); err != nil {
		fatalf("%v", err)
	}
	st, err := kv.NewStore(opts)
	if err != nil {
		fatalf("%v", err)
	}
	defer st.Close()

	if *metrics != "" {
		reg := telemetry.NewRegistry()
		kv.RegisterStoreGauges(reg, st)
		hub := telemetry.NewHub()
		hub.Install(reg)
		_, maddr, err := telemetry.Serve(*metrics, hub)
		if err != nil {
			fatalf("metrics: %v", err)
		}
		if !*quiet {
			fmt.Printf("winkv: metrics on http://%s/metrics\n", maddr)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("%v", err)
	}
	srv := kv.Serve(st, ln)
	if !*quiet {
		o := st.Options()
		fmt.Printf("winkv: serving on %s — %d shards × %d threads, manager=%s\n",
			srv.Addr(), o.Shards, o.ShardThreads, o.Manager)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	start := time.Now()
	<-sig
	srv.Close()
	if !*quiet {
		stats := st.Stats()
		elapsed := time.Since(start).Seconds()
		fmt.Printf("winkv: %d commits (%.0f/s), %d aborts, %d watchdog trips over %.1fs\n",
			stats.Commits, float64(stats.Commits)/elapsed, stats.Aborts, stats.WatchdogTrips, elapsed)
		for i, ps := range stats.PerShard {
			fmt.Printf("winkv:   shard %d: %d commits, %d aborts\n", i, ps.Commits, ps.Aborts)
		}
	}
}
