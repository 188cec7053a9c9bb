// Package metrics collects the transactional statistics the paper reports:
// throughput (committed transactions per second), aborts per commit,
// execution time, and the Section-IV extension metrics — wasted work,
// repeat conflicts, average committed-transaction duration and average
// response time.
//
// # Time accounting
//
// All durations derive from stm.TxInfo, whose fields partition a logical
// transaction's lifetime as follows:
//
//   - Duration is the response time: the transaction's first attempt start
//     (Desc.Birth) to its commit. It contains everything below.
//   - Wasted is the sum over aborted attempts of (attempt end − attempt
//     start). Contention-manager waits taken *during* an aborted attempt —
//     including the waits of its final, losing conflict — fall inside the
//     attempt's span and are therefore part of Wasted.
//   - CommitDur is the span of the successful attempt only, again
//     including any CM waits taken during it.
//   - Duration − Wasted − CommitDur is the inter-attempt overhead: restart
//     backoff a manager pays in Begin (cm.Backoff), the runtime's
//     randomized retry backoff (every lazy-engine retry; eager retries
//     past the eighth), and time queued for the serialized-fallback token.
//     No TxInfo field names it; it is recoverable by subtraction.
//
// Thread.Busy is defined as the total time the thread dedicated to its
// transactions — exactly the sum of Duration. An earlier definition summed
// only Wasted + CommitDur, silently dropping the inter-attempt overhead
// (and with it the CM backoff between a losing attempt and the next), which
// understated Busy and overstated WastedWork under backoff-heavy managers.
//
// For live, time-resolved views of the same quantities see
// wincm/internal/telemetry; FromSnapshot converts one of its snapshots
// into a Summary, making this package a thin consumer of the telemetry
// layer wherever a run is observed mid-flight.
package metrics

import (
	"time"

	"wincm/internal/stm"
	"wincm/internal/telemetry"
)

// Thread accumulates the statistics of one worker thread. It is not
// synchronized: exactly one goroutine records into it, and readers must
// wait for the run to finish.
type Thread struct {
	// Commits is the number of committed transactions.
	Commits int64
	// Aborts is the number of aborted attempts.
	Aborts int64
	// RepeatAborts counts aborts beyond a transaction's first — the
	// transaction conflicted again after retrying (our countable proxy
	// for the paper's "repeat conflicts").
	RepeatAborts int64
	// Wasted is the total time spent in attempts that aborted.
	Wasted time.Duration
	// Busy is the total time dedicated to transactions: aborted attempts,
	// the successful attempt, and the inter-attempt overhead between them
	// (restart backoff, fallback queuing) — i.e. the sum of response
	// times. See the package comment for the exact accounting.
	Busy time.Duration
	// RespSum accumulates response times (first attempt to commit).
	RespSum time.Duration
	// CommitDurSum accumulates the durations of successful attempts.
	CommitDurSum time.Duration
	// FallbackEntries counts transactions that committed holding the
	// serialized-fallback token (they exhausted their retry or deadline
	// budget, or were rescued by the watchdog).
	FallbackEntries int64
	// MaxAttempts is the largest attempt count any single transaction
	// needed — the tail the fallback budgets are meant to bound.
	MaxAttempts int
}

// Record folds one committed transaction's TxInfo into the counters.
func (t *Thread) Record(info stm.TxInfo) {
	t.Commits++
	t.Aborts += int64(info.Aborts())
	if a := info.Aborts(); a > 1 {
		t.RepeatAborts += int64(a - 1)
	}
	t.Wasted += info.Wasted
	t.Busy += info.Duration
	t.RespSum += info.Duration
	t.CommitDurSum += info.CommitDur
	if info.Fallback {
		t.FallbackEntries++
	}
	if info.Attempts > t.MaxAttempts {
		t.MaxAttempts = info.Attempts
	}
}

// Summary is the aggregate of a whole run.
type Summary struct {
	// Threads is the number of worker threads aggregated.
	Threads int
	// Wall is the wall-clock duration of the run.
	Wall time.Duration
	// Commits, Aborts and RepeatAborts sum the per-thread counters.
	Commits, Aborts, RepeatAborts int64
	// Wasted and Busy sum the per-thread execution times.
	Wasted, Busy time.Duration
	// FallbackEntries sums the per-thread serialized-fallback commits and
	// MaxAttempts is the worst attempt count across all threads.
	FallbackEntries int64
	MaxAttempts     int
	// Robustness counters filled in by the harness when fault injection
	// or a watchdog is active (they are runtime-wide, not per-thread):
	// faults injected by the chaos layer and watchdog no-progress trips.
	Stalls, SpuriousAborts, Delays, Perturbs int64
	WatchdogTrips                            int64
	respSum                                  time.Duration
	commitDurSum                             time.Duration
}

// Aggregate combines per-thread counters into a Summary for a run that
// took wall time.
func Aggregate(threads []*Thread, wall time.Duration) Summary {
	s := Summary{Threads: len(threads), Wall: wall}
	for _, t := range threads {
		s.Commits += t.Commits
		s.Aborts += t.Aborts
		s.RepeatAborts += t.RepeatAborts
		s.Wasted += t.Wasted
		s.Busy += t.Busy
		s.respSum += t.RespSum
		s.commitDurSum += t.CommitDurSum
		s.FallbackEntries += t.FallbackEntries
		if t.MaxAttempts > s.MaxAttempts {
			s.MaxAttempts = t.MaxAttempts
		}
	}
	return s
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
	return s.respSum / time.Duration(s.Commits)
}

// MeanCommitDur returns the average duration of committed attempts.
func (s Summary) MeanCommitDur() time.Duration {
	if s.Commits == 0 {
		return 0
	}
	return s.commitDurSum / time.Duration(s.Commits)
}

// FromSnapshot builds a Summary from a telemetry snapshot taken wall into
// a run of the given thread count — the live view of the same aggregates
// Aggregate computes post-run. Counter names follow telemetry.NewTxStats;
// chaos and watchdog gauges, when registered, fill the robustness
// counters. MaxAttempts is approximated by the attempts histogram's
// largest occupied bucket bound (histograms keep bucket bounds, not
// maxima).
func FromSnapshot(snap telemetry.Snapshot, threads int, wall time.Duration) Summary {
	s := Summary{
		Threads:         threads,
		Wall:            wall,
		Commits:         snap.Counters["wincm_commits_total"],
		Aborts:          snap.Counters["wincm_aborts_total"],
		RepeatAborts:    snap.Counters["wincm_repeat_aborts_total"],
		FallbackEntries: snap.Counters["wincm_fallback_commits_total"],
		Wasted:          time.Duration(snap.Counters["wincm_wasted_ns_total"]),
		Busy:            time.Duration(snap.Counters["wincm_busy_ns_total"]),
		Stalls:          int64(snap.Gauges["wincm_chaos_stalls"]),
		SpuriousAborts:  int64(snap.Gauges["wincm_chaos_spurious_aborts"]),
		Delays:          int64(snap.Gauges["wincm_chaos_delays"]),
		Perturbs:        int64(snap.Gauges["wincm_chaos_perturbs"]),
		WatchdogTrips:   int64(snap.Gauges["wincm_watchdog_trips"]),
	}
	if h, ok := snap.Histograms["wincm_response_ns"]; ok {
		s.respSum = time.Duration(h.Sum)
	}
	if h, ok := snap.Histograms["wincm_commit_duration_ns"]; ok {
		s.commitDurSum = time.Duration(h.Sum)
	}
	if h, ok := snap.Histograms["wincm_tx_attempts"]; ok {
		for i := telemetry.NumBuckets - 1; i >= 0; i-- {
			if h.Buckets[i] > 0 {
				s.MaxAttempts = int(telemetry.BucketUpper(i))
				break
			}
		}
	}
	return s
}
