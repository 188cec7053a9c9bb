// Package cm implements the baseline contention managers the paper compares
// against — Polka, Greedy and Priority — plus Backoff and Timestamp, and the
// registry that also holds the window-based managers.
//
// All managers implement stm.ContentionManager. Policy descriptions follow
// Scherer & Scott (PODC'05) and Guerraoui, Herlihy & Pochon (PODC'05),
// which are the papers the evaluated DSTM2 implementations came from.
//
// No manager sees a conflict that involves the runtime's serialized-fallback
// token: the runtime decides those in the holder's favor before asking the
// manager, which is what turns the managers' statistical fairness into a
// hard per-transaction progress guarantee (see wincm/internal/stm,
// fallback.go).
package cm

import (
	"fmt"
	"maps"
	"slices"

	"wincm/internal/stm"
)

// Factory builds a contention manager for a runtime of m threads.
type Factory func(m int) stm.ContentionManager

// factories maps manager names to constructors. Window-based managers are
// registered by the core package; keeping one registry lets the harness and
// CLI select any manager by name.
var factories = map[string]Factory{}

// Register adds a named factory. It panics on duplicates, which would
// indicate an init-order bug.
func Register(name string, f Factory) {
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("cm: duplicate manager %q", name))
	}
	factories[name] = f
}

// New builds the named manager for m threads. It returns an error for
// unknown names so the CLI can report bad -cm flags cleanly.
func New(name string, m int) (stm.ContentionManager, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("cm: unknown contention manager %q", name)
	}
	return f(m), nil
}

// Names returns the registered manager names (unsorted).
func Names() []string { return slices.Collect(maps.Keys(factories)) }

func init() {
	Register("backoff", func(int) stm.ContentionManager { return NewBackoff() })
	Register("polka", func(int) stm.ContentionManager { return NewPolka() })
	Register("greedy", func(int) stm.ContentionManager { return NewGreedy() })
	Register("priority", func(int) stm.ContentionManager { return NewPriority() })
	Register("timestamp", func(int) stm.ContentionManager { return NewTimestamp() })
}
