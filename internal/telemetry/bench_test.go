package telemetry_test

import (
	"testing"

	"wincm/internal/bench"
	"wincm/internal/stm"
	"wincm/internal/telemetry"
)

// stmWorkload runs b.N counter-increment transactions on a single thread —
// the smallest possible STM transaction, a stress ceiling where fixed
// per-commit recording cost is maximally visible. The BenchmarkList* pair
// below runs the paper's actual hot path.
func stmWorkload(b *testing.B, rt *stm.Runtime, record func(stm.TxInfo)) {
	th := rt.Thread(0)
	v := stm.NewTVar(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := th.Atomic(func(tx *stm.Tx) {
			stm.Write(tx, v, stm.Read(tx, v)+1)
		})
		if record != nil {
			record(info)
		}
	}
}

// BenchmarkSTMBaseline is the hot path with no recording.
func BenchmarkSTMBaseline(b *testing.B) {
	rt := stm.New(1, aggressiveCM{})
	stmWorkload(b, rt, nil)
}

// BenchmarkSTMTelemetry is the same path with per-commit TxStats
// recording, the only telemetry a run adds to the runtime's own counts.
func BenchmarkSTMTelemetry(b *testing.B) {
	r := telemetry.NewRegistry()
	tx := telemetry.NewTxStats(r, 1)
	rt := stm.New(1, aggressiveCM{})
	stmWorkload(b, rt, func(info stm.TxInfo) { tx.RecordTx(0, info) })
}

// BenchmarkSTMTelemetryScraped adds a concurrent scraper hammering
// Snapshot while the workload runs — the live-endpoint worst case.
func BenchmarkSTMTelemetryScraped(b *testing.B) {
	r := telemetry.NewRegistry()
	tx := telemetry.NewTxStats(r, 1)
	rt := stm.New(1, aggressiveCM{})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	stmWorkload(b, rt, func(info stm.TxInfo) { tx.RecordTx(0, info) })
	b.StopTimer()
	close(stop)
	<-done
}

// listWorkload runs b.N list operations (the paper's Fig. 2–4 workload,
// high-contention mix on one thread) — the realistic hot path on which the
// recording overhead is read.
func listWorkload(b *testing.B, rt *stm.Runtime, record func(stm.TxInfo)) {
	set := bench.NewList()
	gen := bench.NewGen(bench.HighContention, 1)
	th := rt.Thread(0)
	// Pre-populate half the key range so traversals have real length.
	for k := 0; k < 256; k += 2 {
		k := k
		th.Atomic(func(tx *stm.Tx) { set.Insert(tx, k) })
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next()
		info := th.Atomic(func(tx *stm.Tx) {
			switch op.Kind {
			case bench.OpInsert:
				set.Insert(tx, op.Key)
			case bench.OpRemove:
				set.Remove(tx, op.Key)
			default:
				set.Contains(tx, op.Key)
			}
		})
		if record != nil {
			record(info)
		}
	}
}

// BenchmarkListBaseline is the paper's list workload with no telemetry.
func BenchmarkListBaseline(b *testing.B) {
	rt := stm.New(1, aggressiveCM{})
	listWorkload(b, rt, nil)
}

// BenchmarkListTelemetry is the same workload with per-commit TxStats
// recording.
func BenchmarkListTelemetry(b *testing.B) {
	r := telemetry.NewRegistry()
	tx := telemetry.NewTxStats(r, 1)
	rt := stm.New(1, aggressiveCM{})
	listWorkload(b, rt, func(info stm.TxInfo) { tx.RecordTx(0, info) })
}

// BenchmarkHistogramObserve measures one histogram observation.
func BenchmarkHistogramObserve(b *testing.B) {
	r := telemetry.NewRegistry()
	h := r.NewHistogram("bench_h", "", 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0, int64(i))
	}
}
