// Package kv is the scale-out layer over the STM: a sharded transactional
// key-value store where shardIndex = hash(key) % N routes every key to an
// independent shard — its own STM runtime, its own transactional B-link
// tree, its own window manager and frame clock. The shards share nothing
// on the hot path, so aggregate throughput multiplies the
// already-optimized per-runtime throughput instead of fighting the same
// cache lines, and — under contention — partitioning the conflict domain
// is itself the win: a key that is hot on one shard aborts nobody on the
// other N−1.
//
// Three layers stack on the Store:
//
//   - Session (session.go): the per-connection operation surface. A
//     session owns persistent closures and scratch arrays so the
//     steady-state single-shard request path allocates nothing, and it
//     claims the same thread of every shard first (shard.go), so a shard
//     thread mostly runs one session's stream of transactions.
//   - Cross-shard transactions (txn.go): multi-key operations commit via
//     an ordered two-phase acquire over shard indices — per-shard
//     commit locks taken in ascending order (no deadlock), per-shard STM
//     sub-transactions executed while they are held (conflicts route
//     through each shard's contention manager unchanged).
//   - The wire (proto.go, server.go, client.go): a minimal RESP-style
//     pipelined protocol over TCP with pooled, reused read/write buffers
//     and batched responses.
//
// Serving mode is volatile: a Store's contents do not survive its process.
package kv

import (
	"fmt"
	"sync/atomic"
	"time"

	"wincm/internal/core"
	"wincm/internal/stm"
)

// DefaultManager is the contention manager shards run when Options.Manager
// is empty — the paper's best all-round window variant.
const DefaultManager = "adaptive-improved-dynamic"

// Options configures a Store. The zero value of every field selects a
// sensible default; Validate reports the combinations that cannot work.
// What is not here is fixed: window managers run the paper's N = 50, and
// every shard arms the fallback budgets and its watchdog at
// DefaultMaxAttempts and DefaultTxDeadline.
type Options struct {
	// Shards is the number of independent shards, ≥ 1 (default 4).
	Shards int
	// ShardThreads is the STM thread count per shard, ≥ 1 (default 2):
	// the maximum number of in-flight transactions one shard executes
	// concurrently. Sessions claim a thread per sub-transaction, each its
	// own preferred one first, and park in arrival order when every thread
	// of the shard is claimed — the service's natural backpressure.
	ShardThreads int
	// Manager names the contention manager every shard installs (window
	// variants via core, classics via cm; default DefaultManager).
	Manager string
	// Seed derives every shard's manager seed.
	Seed uint64
}

// The fallback budgets every shard arms (stm.WithFallback), and the
// interval of its progress watchdog: generous enough that ordinary
// conflict handling never trips them, tight enough that no request can
// starve behind a pathological kill cycle.
const (
	DefaultMaxAttempts = 64
	DefaultTxDeadline  = 250 * time.Millisecond
)

// withDefaults resolves every zero field.
func (o Options) withDefaults() Options {
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.ShardThreads == 0 {
		o.ShardThreads = 2
	}
	if o.Manager == "" {
		o.Manager = DefaultManager
	}
	return o
}

// Validate reports the first configuration error, before any shard is
// built — the same fail-fast contract the harness Config has: a flag (or
// field) that would silently do nothing is an error, not a no-op.
func (o Options) Validate() error {
	d := o.withDefaults()
	if o.Shards < 0 || d.Shards < 1 {
		return fmt.Errorf("kv: Shards must be >= 1 (got %d)", o.Shards)
	}
	if o.ShardThreads < 0 || d.ShardThreads < 1 || d.ShardThreads > stm.MaxThreads {
		return fmt.Errorf("kv: ShardThreads (-threads) must be in [1, %d] (got %d)", stm.MaxThreads, o.ShardThreads)
	}
	if _, _, err := core.NewNamed(d.Manager, d.ShardThreads, 0); err != nil {
		return fmt.Errorf("kv: %v", err)
	}
	return nil
}

// Store is the sharded transactional key-value store.
type Store struct {
	opt    Options
	shards []*shard
	// sessions numbers the sessions: NewSession's thread preference.
	sessions atomic.Uint64
}

// NewStore validates o and builds the store: Shards independent STM
// runtimes, each with its own tree, manager and thread pool. The
// constructor is the last fail-fast layer — an invalid Options never
// yields a partially built store.
func NewStore(o Options) (*Store, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	st := &Store{opt: o, shards: make([]*shard, o.Shards)}
	for i := range st.shards {
		sh, err := newShard(i, o)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.shards[i] = sh
	}
	return st, nil
}

// Close stops the shards' watchdogs. The store must be quiescent (no
// session mid-operation).
func (st *Store) Close() {
	for _, sh := range st.shards {
		if sh != nil {
			sh.close()
		}
	}
}

// Options returns the resolved configuration the store runs.
func (st *Store) Options() Options { return st.opt }

// Shards returns the shard count N.
func (st *Store) Shards() int { return len(st.shards) }

// shardOf routes a key: hash(key) % N. The hash is the splitmix64
// finalizer — full-avalanche, so dense integer key spaces spread evenly
// and a Zipfian head lands on shards uniformly.
func (st *Store) shardOf(key int64) int {
	return int(hashKey(key) % uint64(len(st.shards)))
}

// hashKey is the splitmix64 finalization mix.
func hashKey(key int64) uint64 {
	z := uint64(key) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stats is a point-in-time aggregate over the shards.
type Stats struct {
	// Commits and Aborts sum the per-shard transaction outcomes
	// (sub-transactions of a cross-shard operation count once per shard,
	// like the per-shard gauges).
	Commits, Aborts int64
	// WatchdogTrips sums the shards' no-progress intervals; zero on a
	// healthy service.
	WatchdogTrips int64
	// PerShard holds each shard's own commits/aborts pair.
	PerShard []ShardStats
}

// ShardStats is one shard's outcome counters.
type ShardStats struct {
	Commits, Aborts int64
}

// Stats sums the shards' runtime counters.
func (st *Store) Stats() Stats {
	s := Stats{PerShard: make([]ShardStats, len(st.shards))}
	for i, sh := range st.shards {
		c, a := sh.rt.Commits(), sh.rt.Aborts()
		s.PerShard[i] = ShardStats{Commits: c, Aborts: a}
		s.Commits += c
		s.Aborts += a
		s.WatchdogTrips += sh.wd.Trips()
	}
	return s
}
