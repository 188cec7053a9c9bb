package core_test

import (
	"sync"
	"testing"

	"wincm/internal/core"
	"wincm/internal/stm"
	"wincm/internal/telemetry"
)

// gaugeMap runs TelemetryGauges and indexes the result by name.
func gaugeMap(t *testing.T, m *core.Manager) map[string]telemetry.Gauge {
	t.Helper()
	out := map[string]telemetry.Gauge{}
	for _, g := range m.TelemetryGauges() {
		if g.Name() == "" || g.Help() == "" {
			t.Errorf("gauge %q lacks name or help", g.Name())
		}
		if _, dup := out[g.Name()]; dup {
			t.Errorf("duplicate gauge %q", g.Name())
		}
		out[g.Name()] = g
	}
	return out
}

// TestTelemetryGaugesQuiescent: every published gauge is present and
// sane on an idle manager.
func TestTelemetryGaugesQuiescent(t *testing.T) {
	m := core.NewManager(core.DefaultConfig(core.AdaptiveImprovedDynamic, 4))
	gs := gaugeMap(t, m)
	for _, name := range []string{
		"wincm_window_frame", "wincm_window_frame_pending",
		"wincm_window_registered_pending", "wincm_window_frame_dur_ns",
		"wincm_window_tau_ns", "wincm_window_c_mean", "wincm_window_c_max",
		"wincm_window_alpha_max",
		"wincm_window_threads_outside", "wincm_window_entries_total",
		"wincm_window_clean_exits_total",
		"wincm_window_bad_events", "wincm_window_fallback_commits",
		"wincm_window_priority_collisions",
		"wincm_frameclock_contractions_total",
		"wincm_frameclock_expansions_total",
	} {
		g, ok := gs[name]
		if !ok {
			t.Errorf("gauge %s missing", name)
			continue
		}
		g.Value() // must not panic on an idle manager
	}
	// Every thread starts outside the window and none has entered yet.
	if got := gs["wincm_window_threads_outside"].Value(); got != 4 {
		t.Errorf("threads outside = %v, want 4", got)
	}
	if gs["wincm_window_entries_total"].Value() != 0 || gs["wincm_window_clean_exits_total"].Value() != 0 {
		t.Error("idle manager reports window entries or exits")
	}
	// Estimates start at 1, so mean and max are 1 and alpha ≥ 1.
	if gs["wincm_window_c_mean"].Value() != 1 || gs["wincm_window_c_max"].Value() != 1 {
		t.Errorf("initial estimates: mean=%v max=%v",
			gs["wincm_window_c_mean"].Value(), gs["wincm_window_c_max"].Value())
	}
	if gs["wincm_window_alpha_max"].Value() < 1 {
		t.Errorf("alpha = %v", gs["wincm_window_alpha_max"].Value())
	}
}

// TestTelemetryGaugesLive scrapes every gauge concurrently with a
// contended run (race-safety) and checks the counters moved. Each thread's
// first transaction aborts itself once, so every thread enters the window
// whatever the scheduler does and the schedule-side gauges are live.
func TestTelemetryGaugesLive(t *testing.T) {
	const threads, perThread = 8, 150
	cfg := core.DefaultConfig(core.AdaptiveImprovedDynamic, threads)
	cfg.N = 10
	m := core.NewManager(cfg)
	gs := gaugeMap(t, m)
	rt := stm.New(threads, m)
	rt.SetYieldEvery(2)
	ctr := stm.NewTVar(0)

	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				for _, g := range gs {
					_ = g.Value()
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			entered := false
			for j := 0; j < perThread; j++ {
				th.Atomic(func(tx *stm.Tx) {
					if !entered {
						entered = true
						tx.Abort() // noticed by the Read below: one abort, one entry
					}
					stm.Write(tx, ctr, stm.Read(tx, ctr)+1)
				})
			}
		}(rt.Thread(i))
	}
	wg.Wait()
	close(stop)
	<-scraped

	if got := ctr.Peek(); got != threads*perThread {
		t.Fatalf("counter = %d", got)
	}
	if got := rt.Commits(); got != threads*perThread {
		t.Errorf("rt.Commits() = %d, want %d", got, threads*perThread)
	}
	// The conflicts took threads into the window, and a thread is back
	// outside only through a clean exit.
	entries, exits := gs["wincm_window_entries_total"].Value(), gs["wincm_window_clean_exits_total"].Value()
	if entries < threads {
		t.Errorf("entries = %v, want >= %d (every thread aborted once)", entries, threads)
	}
	if inside := threads - gs["wincm_window_threads_outside"].Value(); inside != entries-exits {
		t.Errorf("threads inside = %v, entries - clean exits = %v", inside, entries-exits)
	}
	// Every transaction fought over one counter: estimates must have grown
	// past their initial 1 and collisions/frames must be non-negative.
	if gs["wincm_window_c_max"].Value() < 1 {
		t.Errorf("c_max = %v", gs["wincm_window_c_max"].Value())
	}
	if gs["wincm_window_frame"].Value() < 0 || gs["wincm_window_priority_collisions"].Value() < 0 {
		t.Error("negative gauge reading")
	}
	if m.PriorityCollisions() != int64(gs["wincm_window_priority_collisions"].Value()) {
		t.Error("PriorityCollisions disagrees with its gauge")
	}
}

// TestTelemetryGaugesStaticOccupancy: static frame clocks have no pending
// map; occupancy gauges must read 0, not panic.
func TestTelemetryGaugesStaticOccupancy(t *testing.T) {
	m := core.NewManager(core.DefaultConfig(core.AdaptiveImproved, 2))
	gs := gaugeMap(t, m)
	if gs["wincm_window_frame_pending"].Value() != 0 || gs["wincm_window_registered_pending"].Value() != 0 {
		t.Error("static clock reports occupancy")
	}
}
