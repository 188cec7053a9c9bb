// Package wincm's root benchmarks regenerate every table and figure of the
// paper in testing.B form — one benchmark per artifact, with sub-benchmarks
// per (benchmark, contention manager) cell — plus the ablation benches
// DESIGN.md §5 calls out. Throughput is the inverse of ns/op (each op is
// one committed transaction); aborts per commit is attached as a custom
// metric. cmd/winbench runs the same cells as full sweeps with the paper's
// exact parameters.
//
//	go test -bench=Fig3 -benchmem .
package wincm_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"wincm/internal/bench"
	"wincm/internal/core"
	"wincm/internal/harness"
	"wincm/internal/sim"
	"wincm/internal/stm"
)

// benchThreads is the thread count used by the figure benches; the full
// 1–32 sweeps live in cmd/winbench.
const benchThreads = 8

// runWorkload drives b.N transactions of w split across threads under
// mgr, reporting aborts per commit.
func runWorkload(b *testing.B, mgr stm.ContentionManager, w harness.Workload, threads int) {
	b.Helper()
	rt := stm.New(threads, mgr)
	rt.SetYieldEvery(8)
	w.Setup(rt.Thread(0))
	var aborts atomic.Int64
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		quota := b.N / threads
		if i < b.N%threads {
			quota++
		}
		wg.Add(1)
		go func(id, quota int, th *stm.Thread) {
			defer wg.Done()
			run := w.NewRunner(id, uint64(id)*7919+1)
			for n := 0; n < quota; n++ {
				info := run(th)
				aborts.Add(int64(info.Aborts()))
			}
		}(i, quota, rt.Thread(i))
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(aborts.Load())/float64(b.N), "aborts/commit")
	if err := w.Verify(); err != nil {
		b.Fatal(err)
	}
}

// runNamed builds the named manager and workload and benchmarks them.
func runNamed(b *testing.B, manager, benchmark string, mix bench.Mix, threads int) {
	b.Helper()
	w, err := harness.NewWorkload(benchmark, mix, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{Manager: manager, Threads: threads, WindowN: 10, Seed: 1}
	mgr, err := cfg.NewManager()
	if err != nil {
		b.Fatal(err)
	}
	runWorkload(b, mgr, w, threads)
}

// runCore benchmarks an explicitly configured window manager (ablations).
func runCore(b *testing.B, cfg core.Config, benchmark string, mix bench.Mix) {
	b.Helper()
	w, err := harness.NewWorkload(benchmark, mix, 1)
	if err != nil {
		b.Fatal(err)
	}
	runWorkload(b, core.NewManager(cfg), w, cfg.M)
}

// ablationConfig is the shared starting point of the ablation benches.
func ablationConfig(v core.Variant) core.Config {
	cfg := core.DefaultConfig(v, benchThreads)
	cfg.N = 10
	return cfg
}

var figMix = bench.Mix{UpdatePct: 100, KeyRange: 256}

// BenchmarkFig2 — Figure 2: throughput of the five window-based variants
// on each of the four benchmarks.
func BenchmarkFig2(b *testing.B) {
	for _, bm := range harness.BenchmarkNames() {
		for _, v := range harness.WindowVariantNames() {
			b.Run(fmt.Sprintf("%s/%s", bm, v), func(b *testing.B) {
				runNamed(b, v, bm, figMix, benchThreads)
			})
		}
	}
}

// BenchmarkFig3 — Figure 3: the two best window variants against Polka,
// Greedy and Priority (throughput).
func BenchmarkFig3(b *testing.B) {
	for _, bm := range harness.BenchmarkNames() {
		for _, mgr := range harness.ComparisonManagerNames() {
			b.Run(fmt.Sprintf("%s/%s", bm, mgr), func(b *testing.B) {
				runNamed(b, mgr, bm, figMix, benchThreads)
			})
		}
	}
}

// BenchmarkFig4 — Figure 4: aborts per commit for the Figure 3 manager
// set (read the aborts/commit metric; ns/op is the throughput side).
func BenchmarkFig4(b *testing.B) {
	for _, bm := range harness.BenchmarkNames() {
		for _, mgr := range harness.ComparisonManagerNames() {
			b.Run(fmt.Sprintf("%s/%s", bm, mgr), func(b *testing.B) {
				runNamed(b, mgr, bm, figMix, benchThreads)
			})
		}
	}
}

// BenchmarkFig5 — Figure 5: execution-time overhead under low (20%
// updates), medium (60%) and high (100%) contention; b.N transactions of
// fixed work replace the paper's 20000.
func BenchmarkFig5(b *testing.B) {
	levels := []struct {
		name string
		pct  int
	}{{"low", 20}, {"medium", 60}, {"high", 100}}
	for _, bm := range harness.BenchmarkNames() {
		for _, lvl := range levels {
			for _, mgr := range harness.ComparisonManagerNames() {
				b.Run(fmt.Sprintf("%s/%s/%s", bm, lvl.name, mgr), func(b *testing.B) {
					runNamed(b, mgr, bm, bench.Mix{UpdatePct: lvl.pct, KeyRange: 256}, benchThreads)
				})
			}
		}
	}
}

// BenchmarkTheory — Theorems 2.1/2.3: one op is a full simulated window
// execution; the reported ratio metric is makespan / theorem bound.
func BenchmarkTheory(b *testing.B) {
	for _, alg := range []sim.Algorithm{sim.Offline, sim.Online, sim.OneShot} {
		for _, c := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("%s/C=%d", alg, c), func(b *testing.B) {
				var ratio float64
				for i := 0; i < b.N; i++ {
					res, err := sim.Run(sim.Params{
						M: 32, N: 16, C: c, ColBias: 0.7,
						Algorithm: alg, Seed: uint64(i) + 1,
					})
					if err != nil {
						b.Fatal(err)
					}
					ratio += float64(res.Makespan) / res.Bound
				}
				b.ReportMetric(ratio/float64(b.N), "makespan/bound")
			})
		}
	}
}

// BenchmarkAblationDynamicFrames — DESIGN.md §5.1: dynamic frame
// contraction on/off.
func BenchmarkAblationDynamicFrames(b *testing.B) {
	for _, v := range []core.Variant{core.Online, core.OnlineDynamic} {
		b.Run(v.String(), func(b *testing.B) {
			runCore(b, ablationConfig(v), "list", figMix)
		})
	}
}

// BenchmarkAblationNoDelay — §5.2: random initial delay on/off.
func BenchmarkAblationNoDelay(b *testing.B) {
	for _, zero := range []bool{false, true} {
		name := "with-delay"
		if zero {
			name = "zero-delay"
		}
		b.Run(name, func(b *testing.B) {
			cfg := ablationConfig(core.OnlineDynamic)
			cfg.ZeroDelay = zero
			runCore(b, cfg, "list", figMix)
		})
	}
}

// BenchmarkAblationRedraw — §5.3: π⁽²⁾ redraw after abort vs fixed.
func BenchmarkAblationRedraw(b *testing.B) {
	for _, noRedraw := range []bool{false, true} {
		name := "redraw"
		if noRedraw {
			name = "fixed-p2"
		}
		b.Run(name, func(b *testing.B) {
			cfg := ablationConfig(core.OnlineDynamic)
			cfg.NoRedraw = noRedraw
			runCore(b, cfg, "list", figMix)
		})
	}
}

// BenchmarkAblationFrameScale — §5.4: frame length multiplier sweep.
func BenchmarkAblationFrameScale(b *testing.B) {
	for _, scale := range []float64{0.25, 1, 4} {
		b.Run(fmt.Sprintf("scale=%.2g", scale), func(b *testing.B) {
			cfg := ablationConfig(core.OnlineDynamic)
			cfg.FrameScale = scale
			runCore(b, cfg, "list", figMix)
		})
	}
}

// BenchmarkAblationAdaptivePolicy — §5.5: doubling vs CI-driven growth.
func BenchmarkAblationAdaptivePolicy(b *testing.B) {
	for _, v := range []core.Variant{core.Adaptive, core.AdaptiveImprovedDynamic} {
		b.Run(v.String(), func(b *testing.B) {
			runCore(b, ablationConfig(v), "list", figMix)
		})
	}
}

// BenchmarkAblationLoserPatience — conflict losers' grace rounds: the
// published algorithm (-1, abort immediately), short, and calibrated.
func BenchmarkAblationLoserPatience(b *testing.B) {
	for _, patience := range []int{4, 12} {
		b.Run(fmt.Sprintf("patience=%d", patience), func(b *testing.B) {
			cfg := ablationConfig(core.OnlineDynamic)
			cfg.LoserPatience = patience
			runCore(b, cfg, "list", figMix)
		})
	}
}

// BenchmarkAblationReadVisibility — DESIGN.md §5.6: the visible-read cell
// (the paper's setting, and the runtime's only read strategy).
func BenchmarkAblationReadVisibility(b *testing.B) {
	b.Run("visible", func(b *testing.B) {
		runNamed(b, "online-dynamic", "list", figMix, benchThreads)
	})
}

// BenchmarkAblationHold — low-priority transactions running immediately
// (the published algorithm) vs held until their assigned frame.
func BenchmarkAblationHold(b *testing.B) {
	for _, hold := range []bool{false, true} {
		name := "run-low"
		if hold {
			name = "hold"
		}
		b.Run(name, func(b *testing.B) {
			cfg := ablationConfig(core.OnlineDynamic)
			cfg.HoldUntilFrame = hold
			runCore(b, cfg, "list", figMix)
		})
	}
}
