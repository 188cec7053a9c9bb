package harness

import (
	"fmt"

	"wincm/internal/chaos"
)

// DurabilityFig measures what crash safety costs: the durable workload's
// throughput per manager with the WAL off, then on across a group-commit
// fsync-batching sweep (SyncEvery = 1 is fsync-per-batch; larger values
// acknowledge several sealed batches per fsync). Cells run on the
// simulated in-memory disk so the numbers isolate the logging protocol —
// serialization, batch sealing, fsync count — from physical device
// variance, and stay comparable across CI machines.
func DurabilityFig(o Options) ([]Table, error) {
	if len(o.Threads) == 0 {
		o.Threads = []int{4}
	}
	o = o.withDefaults()
	threads := o.Threads[len(o.Threads)-1]
	syncs := []int{1, 4, 16}

	t := Table{Title: fmt.Sprintf("Durability: WAL off vs group-commit fsync batching — durablemap, M=%d (commits/s)", threads)}
	t.Columns = append(t.Columns, "manager", "wal-off")
	for _, s := range syncs {
		t.Columns = append(t.Columns, fmt.Sprintf("sync=%d", s))
	}
	fsyncCols := fmt.Sprintf("Durability: fsyncs issued per cell — durablemap, M=%d", threads)
	ft := Table{Title: fsyncCols, Columns: t.Columns}

	for _, mgr := range ComparisonManagerNames() {
		row := []string{mgr}
		frow := []string{mgr}
		for _, syncEvery := range append([]int{0}, syncs...) { // 0 = logging off
			rs, err := o.durableCell(mgr, threads, syncEvery)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", mean(rs, Result.Throughput)))
			frow = append(frow, fmt.Sprintf("%.0f", mean(rs, func(r Result) float64 { return float64(r.Wal.Fsyncs) })))
		}
		t.Rows = append(t.Rows, row)
		ft.Rows = append(ft.Rows, frow)
	}
	return []Table{t, ft}, nil
}

// durableCell runs the durable workload Reps times with the WAL fsyncing
// every syncEvery sealed batches (0 = logging off). Every rep gets its own
// fresh disk: the cell measures steady-state logging cost, not recovery.
func (o Options) durableCell(manager string, threads, syncEvery int) ([]Result, error) {
	return o.reps(func(seed uint64) (Result, error) {
		cfg := o.Config(manager, threads, seed)
		if syncEvery > 0 {
			cfg.Durable = &DurableConfig{SyncEvery: syncEvery, FS: chaos.NewDisk(seed)}
		}
		return RunTimed(cfg, NewDurableMap(threads, o.KeyRange), o.Duration)
	})
}
