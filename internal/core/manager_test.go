package core_test

import (
	"sync"
	"testing"

	"wincm/internal/cm"
	"wincm/internal/core"
	"wincm/internal/stm"
)

// TestVariantsRegistered checks the cm registry knows every variant.
func TestVariantsRegistered(t *testing.T) {
	for _, v := range core.Variants() {
		mgr, err := cm.New(v.String(), 4)
		if err != nil {
			t.Fatalf("cm.New(%q): %v", v, err)
		}
		if _, ok := mgr.(*core.Manager); !ok {
			t.Fatalf("cm.New(%q) returned %T", v, mgr)
		}
	}
}

// TestCounterUnderAllVariants runs the shared-counter workload under every
// window variant: atomicity and progress despite maximal conflicts.
func TestCounterUnderAllVariants(t *testing.T) {
	for _, v := range core.Variants() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			const m, perThread = 8, 150
			cfg := core.DefaultConfig(v, m)
			cfg.N = 10 // several windows per thread
			rt := stm.New(m, core.NewManager(cfg))
			ctr := stm.NewTVar(0)
			var wg sync.WaitGroup
			for i := 0; i < m; i++ {
				wg.Add(1)
				go func(th *stm.Thread) {
					defer wg.Done()
					for j := 0; j < perThread; j++ {
						th.Atomic(func(tx *stm.Tx) {
							stm.Write(tx, ctr, stm.Read(tx, ctr)+1)
						})
					}
				}(rt.Thread(i))
			}
			wg.Wait()
			if got := ctr.Peek(); got != m*perThread {
				t.Errorf("counter = %d, want %d", got, m*perThread)
			}
		})
	}
}

// TestAdaptiveEstimateGrowsUnderContention: with every transaction
// conflicting (one hot counter), Adaptive should experience bad events and
// raise its estimates above the initial 1.
func TestAdaptiveEstimateGrowsUnderContention(t *testing.T) {
	const m = 8
	cfg := core.DefaultConfig(core.Adaptive, m)
	cfg.N = 5
	mgr := core.NewManager(cfg)
	rt := stm.New(m, mgr)
	// Bad events are a property of scheduled transactions, and a thread is
	// scheduled only once it has conflicted: yield at every open so the
	// increments interleave and every thread enters the window.
	rt.SetYieldEvery(1)
	ctr := stm.NewTVar(0)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < 400; j++ {
				th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, ctr, stm.Read(tx, ctr)+1)
				})
			}
		}(rt.Thread(i))
	}
	wg.Wait()
	if mgr.BadEvents() == 0 {
		t.Skip("no bad events materialized on this machine; nothing to assert")
	}
	grew := false
	for i := 0; i < m; i++ {
		if mgr.EstimateC(i) > 1 {
			grew = true
		}
	}
	if !grew {
		t.Errorf("bad events occurred (%d) but no estimate grew", mgr.BadEvents())
	}
}

// TestDisjointTransactionsMostlyConflictFree: threads touching disjoint
// variables should commit with almost no aborts under window managers.
func TestDisjointTransactionsMostlyConflictFree(t *testing.T) {
	const m, per = 4, 200
	rt := stm.New(m, core.New(core.OnlineDynamic, m))
	vars := make([]*stm.TVar[int], m)
	for i := range vars {
		vars[i] = stm.NewTVar(0)
	}
	var wg sync.WaitGroup
	aborts := make([]int, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(id int, th *stm.Thread) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				info := th.Atomic(func(tx *stm.Tx) {
					stm.Write(tx, vars[id], stm.Read(tx, vars[id])+1)
				})
				aborts[id] += info.Aborts()
			}
		}(i, rt.Thread(i))
	}
	wg.Wait()
	total := 0
	for i, v := range vars {
		if got := v.Peek(); got != per {
			t.Errorf("var %d = %d, want %d", i, got, per)
		}
		total += aborts[i]
	}
	if total != 0 {
		t.Errorf("disjoint workload suffered %d aborts", total)
	}
}
