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
//
// Gauges sample the shards' single-writer stat slots and the frame
// clock's own atomics, so scraping is race-free against the workload.
func RegisterStoreGauges(r *telemetry.Registry, st *Store) {
	for i, sh := range st.shards {
		sh := sh
		labels := `shard="` + strconv.Itoa(i) + `"`
		r.RegisterGauge(telemetry.NewLabeledGauge("wincm_kv_shard_commits", labels,
			"transactions committed by this shard (cross-shard sub-transactions count per shard)",
			func() float64 { c, _ := sh.counts(); return float64(c) }))
		r.RegisterGauge(telemetry.NewLabeledGauge("wincm_kv_shard_aborts", labels,
			"transaction attempts aborted on this shard",
			func() float64 { _, a := sh.counts(); return float64(a) }))
		r.RegisterGauge(telemetry.NewLabeledGauge("wincm_kv_shard_occupancy", labels,
			"current frame-clock pending registrations on this shard (window managers only)",
			func() float64 { cur, _ := sh.occupancy(); return float64(cur) }))
		r.RegisterGauge(telemetry.NewLabeledGauge("wincm_kv_pool_idle", labels,
			"STM threads of this shard not claimed by any session",
			func() float64 { return float64(len(sh.pool)) }))
	}
	r.RegisterGauge(telemetry.NewGauge("wincm_kv_shards",
		"number of independent shards", func() float64 { return float64(st.Shards()) }))
	r.RegisterGauge(telemetry.NewGauge("wincm_kv_watchdog_trips_total",
		"no-progress watchdog intervals summed over shards",
		func() float64 { return float64(st.Stats().WatchdogTrips) }))
}
