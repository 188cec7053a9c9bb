package telemetry

import (
	"time"

	"wincm/internal/stm"
)

// Names of the transaction instruments: NewTxStats registers them and
// Snapshot.Summary reads them back, so the two cannot drift apart.
const (
	nameResponse  = "wincm_response_ns"
	nameCommitDur = "wincm_commit_duration_ns"
	nameAttempts  = "wincm_tx_attempts"
	nameWasted    = "wincm_wasted_ns"
)

// TxStats is the one recorder of committed transactions: four histograms,
// each observed once per commit, whose counts and sums are every number
// the paper's figures aggregate (see Summary). Each worker thread records
// into its own shard (its thread ID), so recording never contends. A run's
// end-of-run numbers are a Summary of the registry's final Snapshot; a
// scrape mid-run reads the same instruments.
//
// # Time accounting
//
// All durations derive from stm.TxInfo, which measures them on timed
// runtimes only (the default, and what the harness builds); an untimed
// runtime (stm.WithoutTxTiming, the kv shards) reports them as 0, and
// would record zeros here. On a timed runtime the fields partition a
// logical transaction's lifetime as follows:
//
//   - Duration is the response time: the transaction's first attempt start
//     (Desc.Birth) to its commit. It contains everything below.
//   - Wasted is the sum over aborted attempts of (attempt end − attempt
//     start). Contention-manager waits taken *during* an aborted attempt —
//     including the waits of its final, losing conflict — fall inside the
//     attempt's span and are therefore part of Wasted.
//   - CommitDur is the span of the successful attempt only, again
//     including any CM waits taken during it.
//   - Duration − Wasted − CommitDur is the inter-attempt overhead: the
//     runtime's one restart delay, taken after rollback and before the
//     next attempt starts (the span an AbortSelf verdict carried, as
//     cm.Backoff's does, plus randomized jitter on retries past the
//     eighth), and time queued for the serialized-fallback token.
//     No TxInfo field names it; it is recoverable by subtraction, and
//     stm.Verdicts.RestartNs sums the manager-carried part.
//
// Busy, the total time threads dedicated to their transactions, is exactly
// the sum of Duration — the Response histogram's sum — inter-attempt
// overhead included; summing only Wasted + CommitDur would understate Busy
// and overstate WastedWork under backoff-heavy managers.
type TxStats struct {
	// Response is the response-time histogram (first attempt → commit), ns.
	Response *Histogram
	// CommitDur is the successful-attempt duration histogram, ns.
	CommitDur *Histogram
	// Attempts is the attempts-per-transaction histogram: its count is the
	// commits, and the aborts and repeat aborts follow from its sum and its
	// bucket 1 (see Snapshot.Summary).
	Attempts *Histogram
	// WastedNs is the histogram of each transaction's time spent in
	// aborted attempts (see Time accounting above), ns.
	WastedNs *Histogram
}

// NewTxStats registers the transaction instrument set in r, sharded for
// the given worker count.
func NewTxStats(r *Registry, shards int) *TxStats {
	return &TxStats{
		Response:  r.NewHistogram(nameResponse, "transaction response time (first attempt to commit)", shards),
		CommitDur: r.NewHistogram(nameCommitDur, "duration of successful attempts", shards),
		Attempts:  r.NewHistogram(nameAttempts, "attempts needed per committed transaction", shards),
		WastedNs:  r.NewHistogram(nameWasted, "time spent in aborted attempts per committed transaction", shards),
	}
}

// RecordTx folds one committed transaction's TxInfo into the instruments.
// shard is the recording thread's ID.
func (s *TxStats) RecordTx(shard int, info stm.TxInfo) {
	s.Response.Observe(shard, int64(info.Duration))
	s.CommitDur.Observe(shard, int64(info.CommitDur))
	s.Attempts.Observe(shard, int64(info.Attempts))
	s.WastedNs.Observe(shard, int64(info.Wasted))
}

// Summary is the transactional statistics the paper reports for one run:
// throughput (committed transactions per second), aborts per commit,
// execution time, and the Section-IV extension metrics — wasted work,
// repeat conflicts, average committed-transaction duration and average
// response time. It is a view of a Snapshot holding a TxStats set.
type Summary struct {
	// Threads is the number of worker threads of the run.
	Threads int
	// Wall is the wall-clock duration the snapshot was taken at.
	Wall time.Duration
	// Commits counts committed transactions, Aborts aborted attempts, and
	// RepeatAborts the aborts beyond a transaction's first — it conflicted
	// again after retrying (our countable proxy for the paper's "repeat
	// conflicts").
	Commits, Aborts, RepeatAborts int64
	// Wasted is the total time spent in attempts that aborted; Busy the
	// total time dedicated to transactions (the sum of response times).
	Wasted, Busy time.Duration
	// MaxAttempts is the largest attempt count any single transaction
	// needed.
	MaxAttempts  int
	commitDurSum time.Duration
}

// Summary reads the TxStats instruments out of a snapshot taken wall into
// a run of the given thread count. Every field is exact: the histogram
// shards keep their own sums and maxima, and the counts follow from the
// attempts histogram a. Each commit observes its attempt count n ≥ 1,
// which took n − 1 aborts, n − 2 of them repeats when n ≥ 2; bucket 1
// holds exactly the n = 1 commits (NumBuckets), whose −1 the repeat sum
// must cancel.
func (snap Snapshot) Summary(threads int, wall time.Duration) Summary {
	a := snap.Histograms[nameAttempts]
	return Summary{
		Threads:      threads,
		Wall:         wall,
		Commits:      a.Count,
		Aborts:       a.Sum - a.Count,
		RepeatAborts: a.Sum - 2*a.Count + a.Buckets[1],
		Wasted:       time.Duration(snap.Histograms[nameWasted].Sum),
		Busy:         time.Duration(snap.Histograms[nameResponse].Sum),
		MaxAttempts:  int(a.Max),
		commitDurSum: time.Duration(snap.Histograms[nameCommitDur].Sum),
	}
}

// Throughput returns committed transactions per second.
func (s Summary) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Commits) / s.Wall.Seconds()
}

// AbortsPerCommit returns the aborts/commit ratio (Fig. 4's metric).
func (s Summary) AbortsPerCommit() float64 {
	if s.Commits == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Commits)
}

// WastedWork returns the fraction of execution time spent in attempts
// that aborted (Section IV's wasted-work metric).
func (s Summary) WastedWork() float64 {
	if s.Busy <= 0 {
		return 0
	}
	return float64(s.Wasted) / float64(s.Busy)
}

// MeanResponse returns the average response time per transaction.
func (s Summary) MeanResponse() time.Duration {
	if s.Commits == 0 {
		return 0
	}
	return s.Busy / time.Duration(s.Commits)
}

// MeanCommitDur returns the average duration of committed attempts.
func (s Summary) MeanCommitDur() time.Duration {
	if s.Commits == 0 {
		return 0
	}
	return s.commitDurSum / time.Duration(s.Commits)
}
