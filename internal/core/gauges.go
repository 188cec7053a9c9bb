package core

import "wincm/internal/telemetry"

// PriorityCollisions returns how many Resolve calls found both sides with
// identical (π⁽¹⁾, π⁽²⁾) priority vectors, so only the ID tie-break
// decided. RandomizedRounds' O(log n) bound assumes such collisions are
// rare; the counter lets a run check that live.
func (m *Manager) PriorityCollisions() int64 { return m.sum(cellCollisions) }

// estimateStats folds the per-thread contention estimates into (mean, max).
// Each C_i is a single-writer atomic, so it is safe during a run.
func (m *Manager) estimateStats() (mean, max float64) {
	if len(m.threads) == 0 {
		return 0, 0
	}
	var sum float64
	for _, st := range m.threads {
		c := st.est.value()
		sum += c
		if c > max {
			max = c
		}
	}
	return sum / float64(len(m.threads)), max
}

// threadsOutside counts the threads currently outside the window schedule.
func (m *Manager) threadsOutside() int {
	n := 0
	for _, st := range m.threads {
		if !st.inWindow.Load() {
			n++
		}
	}
	return n
}

// TelemetryGauges returns the live view of the
// window machinery the paper's analysis reasons about — the frame clock,
// frame occupancy (dynamic mode), the calibrated frame/τ̂ durations, the
// per-thread contention estimates and the window size α they induce, bad
// events, and priority collisions. All values are read from atomics, so
// scraping mid-run is race-free.
func (m *Manager) TelemetryGauges() []telemetry.Gauge {
	return []telemetry.Gauge{
		telemetry.NewGauge("wincm_window_frame", "current frame index of the window manager's clock",
			func() float64 { return float64(m.clock.Current()) }),
		telemetry.NewGauge("wincm_window_frame_pending", "scheduled transactions not yet committed in the current frame (dynamic mode)",
			func() float64 { cur, _ := m.clock.occupancy(); return float64(cur) }),
		telemetry.NewGauge("wincm_window_registered_pending", "scheduled transactions not yet committed across all frames (dynamic mode)",
			func() float64 { _, tot := m.clock.occupancy(); return float64(tot) }),
		telemetry.NewGauge("wincm_window_frame_dur_ns", "frame duration Φ = τ̂·ln(MN) the clock runs on, set at the last segment opening",
			func() float64 { return float64(m.clock.dur.Load()) }),
		telemetry.NewGauge("wincm_window_tau_ns", "mean per-thread τ̂ of the threads inside the window (all threads when none is)",
			func() float64 { return float64(m.tau()) }),
		telemetry.NewGauge("wincm_window_c_mean", "mean per-thread contention estimate C_i",
			func() float64 { mean, _ := m.estimateStats(); return mean }),
		telemetry.NewGauge("wincm_window_c_max", "max per-thread contention estimate C_i",
			func() float64 { _, max := m.estimateStats(); return max }),
		telemetry.NewGauge("wincm_window_alpha_max", "window size α_i = min(N, C_i/ln(MN)) induced by the largest estimate",
			func() float64 {
				_, max := m.estimateStats()
				return float64(alpha(max, m.cfg.M, m.cfg.N))
			}),
		telemetry.NewGauge("wincm_window_threads_outside", "threads currently outside the window schedule (no conflict since their last clean segment)",
			func() float64 { return float64(m.threadsOutside()) }),
		telemetry.NewGauge("wincm_window_entries_total", "times a thread entered the window schedule on a conflict or abort of its own",
			func() float64 { return float64(m.sum(cellEntries)) }),
		telemetry.NewGauge("wincm_window_clean_exits_total", "segments that ended without a conflict and took their thread back outside",
			func() float64 { return float64(m.sum(cellCleanExits)) }),
		telemetry.NewGauge("wincm_window_bad_events", "transactions that missed their assigned frame",
			func() float64 { return float64(m.sum(cellBadEvents)) }),
		telemetry.NewGauge("wincm_window_fallback_commits", "commits made holding the serialized-fallback token",
			func() float64 { return float64(m.sum(cellFallbacks)) }),
		telemetry.NewGauge("wincm_window_priority_collisions", "conflicts whose priority vectors tied (ID tie-break decided)",
			func() float64 { return float64(m.sum(cellCollisions)) }),
		telemetry.NewGauge("wincm_frameclock_contractions_total", "drain-driven frame advances (dynamic contraction)",
			func() float64 { return float64(m.clock.contractions.Load()) }),
		telemetry.NewGauge("wincm_frameclock_expansions_total", "time-driven frame advances (dynamic expansion)",
			func() float64 { return float64(m.clock.expansions.Load()) }),
	}
}
