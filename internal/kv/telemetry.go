package kv

import (
	"strconv"

	"wincm/internal/telemetry"
)

// RegisterStoreGauges publishes the store's live state into r as labeled
// per-shard series plus store-level aggregates:
//
//	wincm_kv_shard_commits{shard="i"}     committed transactions
//	wincm_kv_shard_aborts{shard="i"}      aborted attempts
//	wincm_kv_shard_occupancy{shard="i"}   frame-clock pending registrations
//	                                      (window managers; 0 otherwise)
//	wincm_kv_pool_idle{shard="i"}         STM threads not claimed by any
//	                                      session (= ShardThreads at rest;
//	                                      lower at rest is a leaked thread)
//	wincm_kv_shards                       shard count N
//	wincm_kv_watchdog_trips_total         summed no-progress intervals
//	wincm_btree_semantic_conflicts_total  key-level conflicts, summed
//	wincm_btree_structural_ops_total      splits and root growth, summed
//	wincm_btree_false_conflicts_avoided_total
//	                                      leaf-version misses the key-level
//	                                      recheck proved harmless, summed
//
// Gauges sample the shards' runtime counters, the trees' Stats and the
// frame clock's own atomics, so scraping is race-free against the
// workload.
func RegisterStoreGauges(r *telemetry.Registry, st *Store) {
	for i, sh := range st.shards {
		labels := `shard="` + strconv.Itoa(i) + `"`
		r.RegisterGauge(telemetry.NewLabeledGauge("wincm_kv_shard_commits", labels,
			"transactions committed by this shard (cross-shard sub-transactions count per shard)",
			func() float64 { return float64(sh.rt.Commits()) }))
		r.RegisterGauge(telemetry.NewLabeledGauge("wincm_kv_shard_aborts", labels,
			"transaction attempts aborted on this shard",
			func() float64 { return float64(sh.rt.Aborts()) }))
		r.RegisterGauge(telemetry.NewLabeledGauge("wincm_kv_shard_occupancy", labels,
			"current frame-clock pending registrations on this shard (window managers only)",
			func() float64 { cur, _ := sh.occupancy(); return float64(cur) }))
		r.RegisterGauge(telemetry.NewLabeledGauge("wincm_kv_pool_idle", labels,
			"STM threads of this shard not claimed by any session",
			func() float64 { return float64(sh.idle()) }))
	}
	r.RegisterGauge(telemetry.NewGauge("wincm_kv_shards",
		"number of independent shards", func() float64 { return float64(st.Shards()) }))
	r.RegisterGauge(telemetry.NewGauge("wincm_kv_watchdog_trips_total",
		"no-progress watchdog intervals summed over shards",
		func() float64 { return float64(st.Stats().WatchdogTrips) }))
	for i, m := range []struct{ name, help string }{
		{"wincm_btree_semantic_conflicts_total", "key-level semantic conflicts (CM resolutions and failed semantic validations), summed over shards"},
		{"wincm_btree_structural_ops_total", "structural modifications (splits, root growth) executed off every conflict set, summed over shards"},
		{"wincm_btree_false_conflicts_avoided_total", "leaf-version misses the key-level recheck proved harmless, summed over shards"},
	} {
		r.RegisterGauge(telemetry.NewGauge(m.name, m.help, func() float64 { return float64(st.treeStats()[i]) }))
	}
}

// treeStats sums the shards' Tree.Stats: semantic conflicts, structural
// ops and false conflicts avoided, in that order.
func (st *Store) treeStats() (sum [3]uint64) {
	for _, sh := range st.shards {
		a, b, c := sh.tree.Stats()
		sum[0], sum[1], sum[2] = sum[0]+a, sum[1]+b, sum[2]+c
	}
	return sum
}
