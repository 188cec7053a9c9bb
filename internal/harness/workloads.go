package harness

import (
	"fmt"

	"wincm/internal/bench"
	"wincm/internal/stm"
	"wincm/internal/vacation"
)

// BenchmarkNames lists the paper's workloads in presentation order.
func BenchmarkNames() []string {
	return []string{"list", "rbtree", "skiplist", "vacation"}
}

// NewWorkload builds the named workload: "vacation" (driven by the
// scenario for mix's contention level: ≤20% updates → low, ≤60% → medium,
// else high) or any of bench.SetNames (driven by mix).
func NewWorkload(name string, mix bench.Mix, seed uint64) (Workload, error) {
	switch name {
	case "vacation":
		level := "high"
		switch {
		case mix.UpdatePct <= 20:
			level = "low"
		case mix.UpdatePct <= 60:
			level = "medium"
		}
		cfg, err := vacation.Scenario(level)
		if err != nil {
			return nil, err
		}
		cfg.Seed = seed
		return &vacationWorkload{db: vacation.New(cfg)}, nil
	default:
		s, err := bench.NewSet(name)
		if err != nil {
			return nil, err
		}
		return &setWorkload{set: s, mix: mix, seed: seed}, nil
	}
}

// setWorkload adapts a bench.Set plus an operation mix.
type setWorkload struct {
	set  bench.Set
	mix  bench.Mix
	seed uint64
}

func (w *setWorkload) Name() string { return w.set.Name() }

// Setup brings the set to half occupancy of its key range, the steady
// state an equal insert/remove mix preserves.
func (w *setWorkload) Setup(th *stm.Thread) {
	bench.Populate(th, w.set, w.mix.KeyRange/2, w.mix.KeyRange, w.seed)
}

func (w *setWorkload) NewRunner(id int, seed uint64) Runner {
	g := bench.NewGen(w.mix, seed)
	return func(th *stm.Thread) stm.TxInfo {
		op := g.Next()
		return th.Atomic(func(tx *stm.Tx) {
			bench.Apply(tx, w.set, op)
		})
	}
}

func (w *setWorkload) Verify() error {
	keys := w.set.Keys()
	for _, k := range keys {
		if k < 0 || k >= w.mix.KeyRange {
			return fmt.Errorf("harness: %s holds out-of-range key %d", w.set.Name(), k)
		}
	}
	// Every set benchmark carries a structural validator.
	if v, ok := w.set.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// vacationWorkload adapts the vacation database.
type vacationWorkload struct {
	db *vacation.Vacation
}

func (w *vacationWorkload) Name() string { return "vacation" }

func (w *vacationWorkload) Setup(th *stm.Thread) { w.db.Setup(th) }

func (w *vacationWorkload) NewRunner(id int, seed uint64) Runner {
	c := w.db.NewClient(seed)
	return func(th *stm.Thread) stm.TxInfo {
		_, info := c.Do(th)
		return info
	}
}

func (w *vacationWorkload) Verify() error { return w.db.Verify() }
