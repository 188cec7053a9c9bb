package harness

import (
	"fmt"
	"sync/atomic"

	"wincm/internal/bench"
	"wincm/internal/kmeans"
	"wincm/internal/rng"
	"wincm/internal/stm"
	"wincm/internal/vacation"
)

// BenchmarkNames lists the paper's workloads in presentation order. The
// "kmeans" extension workload (Section IV future work) is available by
// name but not part of the default figure sweeps.
func BenchmarkNames() []string {
	return []string{"list", "rbtree", "skiplist", "vacation"}
}

// NewWorkload builds the named workload: "vacation" (driven by the
// scenario for mix's contention level: ≤20% updates → low, ≤60% → medium,
// else high), the "kmeans" extension (mix's update percentage shrinks the
// cluster count, concentrating the hot spots), or any of bench.SetNames
// (driven by mix).
func NewWorkload(name string, mix bench.Mix, seed uint64) (Workload, error) {
	switch name {
	case "kmeans":
		k := 16
		if mix.UpdatePct > 60 {
			k = 4 // fewer clusters ⇒ hotter accumulators
		} else if mix.UpdatePct > 20 {
			k = 8
		}
		return &kmeansWorkload{
			db: kmeans.New(kmeans.Config{K: k, Points: 4096, Seed: seed}),
		}, nil
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

// kmeansWorkload adapts the kmeans extension benchmark; it checks point
// conservation (every committed assignment lands in exactly one
// accumulator) on top of the benchmark's own sanity invariants.
type kmeansWorkload struct {
	db       *kmeans.KMeans
	assigned atomic.Int64
}

func (w *kmeansWorkload) Name() string { return "kmeans" }

func (w *kmeansWorkload) Setup(th *stm.Thread) {}

func (w *kmeansWorkload) NewRunner(id int, seed uint64) Runner {
	r := rng.New(seed)
	return func(th *stm.Thread) stm.TxInfo {
		_, info := w.db.Assign(th, r.Intn(w.db.Config().Points))
		w.assigned.Add(1)
		return info
	}
}

func (w *kmeansWorkload) Verify() error {
	if err := w.db.Verify(); err != nil {
		return err
	}
	if got, want := w.db.Assigned(), w.assigned.Load(); got != want {
		return fmt.Errorf("harness: kmeans accumulated %d points, %d committed", got, want)
	}
	return nil
}
