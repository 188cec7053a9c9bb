// Bank: a contended transfer workload that compares contention managers
// head to head. Every thread moves random amounts between random accounts;
// afterwards the example reports throughput, aborts per commit and wasted
// work for each manager, and checks that the total balance is conserved.
//
// Usage:
//
//	go run ./examples/bank [-threads 8] [-accounts 32] [-dur 500ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"wincm/internal/cm"
	_ "wincm/internal/core" // registers the window-based managers
	"wincm/internal/rng"
	"wincm/internal/stm"
	"wincm/internal/telemetry"
)

func main() {
	var (
		threads  = flag.Int("threads", 8, "worker threads")
		accounts = flag.Int("accounts", 32, "number of accounts")
		dur      = flag.Duration("dur", 500*time.Millisecond, "run duration per manager")
		initial  = flag.Int("initial", 1000, "initial balance per account")
	)
	flag.Parse()

	managers := []string{
		"online-dynamic", "adaptive-improved-dynamic",
		"polka", "greedy", "priority",
	}

	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "manager\tcommits/s\taborts/commit\twasted-work")
	for _, name := range managers {
		s, err := run(name, *threads, *accounts, *initial, *dur)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bank: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.3f\t%.3f\n",
			name, s.Throughput(), s.AbortsPerCommit(), s.WastedWork())
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "bank:", err)
		os.Exit(1)
	}
}

func run(manager string, threads, accounts, initial int, dur time.Duration) (telemetry.Summary, error) {
	mgr, err := cm.New(manager, threads)
	if err != nil {
		return telemetry.Summary{}, err
	}
	rt := stm.New(threads, mgr)
	rt.SetYieldEvery(8) // interleave transactions even on few cores

	vars := make([]*stm.TVar[int], accounts)
	for i := range vars {
		vars[i] = stm.NewTVar(initial)
	}

	// Every thread records its commits into its own shard of one TxStats;
	// the summary is read off the registry's snapshot at the end.
	reg := telemetry.NewRegistry()
	stats := telemetry.NewTxStats(reg, threads)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(id int, th *stm.Thread) {
			defer wg.Done()
			r := rng.New(uint64(id) + 42)
			for !stop.Load() {
				from := r.Intn(accounts)
				to := (from + 1 + r.Intn(accounts-1)) % accounts
				amt := r.Intn(20)
				stats.RecordTx(id, th.Atomic(func(tx *stm.Tx) {
					f := stm.Read(tx, vars[from])
					t := stm.Read(tx, vars[to])
					stm.Write(tx, vars[from], f-amt)
					stm.Write(tx, vars[to], t+amt)
				}))
			}
		}(i, rt.Thread(i))
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()

	total := 0
	for _, v := range vars {
		total += v.Peek()
	}
	if want := accounts * initial; total != want {
		return telemetry.Summary{}, fmt.Errorf("%s lost money: total %d, want %d", manager, total, want)
	}
	return reg.Snapshot().Summary(threads, time.Since(start)), nil
}
