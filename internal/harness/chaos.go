package harness

import (
	"fmt"
	"sort"

	"wincm/internal/cm"
)

// chaosSweepThreads is the thread count of the robustness matrix when
// Options.Threads is empty: the acceptance bar is that every manager
// degrades gracefully at M=8 under stall injection.
const chaosSweepThreads = 8

// chaosBenchmarks are the set benchmarks the robustness matrix covers
// (vacation is excluded: its long traversals make chaos cells an order of
// magnitude slower without exercising different machinery).
func chaosBenchmarks() []string { return []string{"list", "rbtree", "skiplist"} }

// ChaosManagerNames lists every registered contention manager — the 13
// classic policies plus the 5 window-based variants — in stable order.
func ChaosManagerNames() []string {
	names := cm.Names()
	sort.Strings(names)
	return names
}

// ChaosSweep runs the robustness matrix: every registered contention
// manager × each set benchmark × each of Options.Threads (default 8
// alone), one run per cell on Options.Seed, under deterministic fault
// injection (stalls holding acquired objects, spurious aborts, delays,
// CM-decision perturbation) with the serialized-fallback budgets armed.
//
// A cell passes only if the run drains to quiescence (the watchdog proves
// no transaction is permanently stuck) and the workload's Verify() holds;
// RunTimed turns either violation into an error, so a returned table is
// itself the graceful-degradation certificate. The reported columns show
// how each manager coped: commit throughput under fault load, injected
// fault counts, how often the serialized fallback had to fire, and the
// worst attempt tail.
func ChaosSweep(o Options) ([]Table, error) {
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = chaosBenchmarks()
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{chaosSweepThreads}
	}
	o, err := o.resolve()
	if err != nil {
		return nil, err
	}
	o.Chaos = true

	var tables []Table
	for _, b := range o.Benchmarks {
		for _, threads := range o.Threads {
			t := Table{
				Title: fmt.Sprintf("Chaos: fault injection — %s (M=%d, seed=%d)",
					b, threads, o.chaosConfig(threads).Seed),
				Columns: []string{"manager", "commits/s", "aborts/commit",
					"stalls", "spurious", "delays", "perturbs",
					"fallbacks", "maxAttempts", "wdTrips"},
			}
			for _, mgr := range ChaosManagerNames() {
				res, err := o.timed(b, o.Config(mgr, threads, o.Seed))
				if err != nil {
					return nil, fmt.Errorf("chaos cell %s/%s: %w", b, mgr, err)
				}
				t.Rows = append(t.Rows, []string{
					mgr,
					fmt.Sprintf("%.0f", res.Throughput()),
					fmt.Sprintf("%.2f", res.AbortsPerCommit()),
					fmt.Sprintf("%d", res.Stalls),
					fmt.Sprintf("%d", res.SpuriousAborts),
					fmt.Sprintf("%d", res.Delays),
					fmt.Sprintf("%d", res.Perturbs),
					fmt.Sprintf("%d", res.FallbackEntries),
					fmt.Sprintf("%d", res.MaxAttempts),
					fmt.Sprintf("%d", res.WatchdogTrips),
				})
			}
			tables = append(tables, t)
		}
	}
	return tables, nil
}
