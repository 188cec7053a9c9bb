// Package bench implements the paper's micro-benchmarks — sorted linked
// list (List), red-black tree (RBTree) and skip list (SkipList) — as
// transactional integer sets over the STM, plus the operation-mix workload
// machinery the experiments share. The Vacation benchmark lives in
// wincm/internal/vacation.
package bench

import (
	"fmt"
	"sort"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// Set is a transactional integer set; every benchmark implements it.
type Set interface {
	// Insert adds key, reporting whether it was absent.
	Insert(tx *stm.Tx, key int) bool
	// Remove deletes key, reporting whether it was present.
	Remove(tx *stm.Tx, key int) bool
	// Contains reports whether key is present.
	Contains(tx *stm.Tx, key int) bool
	// Keys returns a sorted snapshot, read non-transactionally; call it
	// only while no transactions run (tests and verification).
	Keys() []int
	// Name identifies the benchmark ("list", "rbtree", "skiplist").
	Name() string
}

// NewSet builds the named set benchmark. Valid names are "list",
// "rbtree", "skiplist" and "btree".
func NewSet(name string) (Set, error) {
	switch name {
	case "list":
		return NewList(), nil
	case "rbtree":
		return NewRBTree(), nil
	case "skiplist":
		return NewSkipList(), nil
	case "btree":
		return NewBTree(), nil
	default:
		return nil, fmt.Errorf("bench: unknown set benchmark %q", name)
	}
}

// SetNames lists the set benchmarks in presentation order: the paper's
// three and the semantically-validated B-link tree.
func SetNames() []string { return []string{"list", "rbtree", "skiplist", "btree"} }

// Populate inserts size distinct random keys from [0, keyRange) using
// thread th, bringing the structure to the experiments' steady-state
// initial occupancy. It returns the number inserted.
func Populate(th *stm.Thread, s Set, size, keyRange int, seed uint64) int {
	r := rng.New(seed)
	inserted := 0
	for attempts := 0; inserted < size && attempts < 20*size; attempts++ {
		key := r.Intn(keyRange)
		th.Atomic(func(tx *stm.Tx) {
			if s.Insert(tx, key) {
				inserted++
			}
		})
	}
	return inserted
}

// OpKind is one set operation drawn from a Mix.
type OpKind int

const (
	// OpInsert adds a key.
	OpInsert OpKind = iota
	// OpRemove removes a key.
	OpRemove
	// OpContains looks a key up without updating.
	OpContains
)

// Mix describes an operation mix: UpdatePct percent of operations are
// updates (split evenly between inserts and removes, as in the DSTM
// benchmarks), the rest are lookups. KeyRange is the key universe; a
// smaller range yields more conflicts.
type Mix struct {
	UpdatePct int
	KeyRange  int
}

// Paper contention scenarios (Section III-D): low = 20% updates,
// medium = 60%, high = 100%.
var (
	LowContention    = Mix{UpdatePct: 20, KeyRange: 256}
	MediumContention = Mix{UpdatePct: 60, KeyRange: 256}
	HighContention   = Mix{UpdatePct: 100, KeyRange: 256}
)

// Op is one concrete operation.
type Op struct {
	Kind OpKind
	Key  int
}

// Gen draws operations from a Mix deterministically.
type Gen struct {
	mix Mix
	r   *rng.Rand
}

// NewGen returns a generator for mix seeded with seed.
func NewGen(mix Mix, seed uint64) *Gen {
	if mix.KeyRange <= 0 {
		mix.KeyRange = 256
	}
	return &Gen{mix: mix, r: rng.New(seed)}
}

// Next draws the next operation.
func (g *Gen) Next() Op {
	op := Op{Key: g.r.Intn(g.mix.KeyRange)}
	if g.r.Intn(100) < g.mix.UpdatePct {
		if g.r.Bool(0.5) {
			op.Kind = OpInsert
		} else {
			op.Kind = OpRemove
		}
	} else {
		op.Kind = OpContains
	}
	return op
}

// Apply runs op against s inside tx and reports the operation's result.
func Apply(tx *stm.Tx, s Set, op Op) bool {
	switch op.Kind {
	case OpInsert:
		return s.Insert(tx, op.Key)
	case OpRemove:
		return s.Remove(tx, op.Key)
	default:
		return s.Contains(tx, op.Key)
	}
}

// sortedUnique sorts ks and removes duplicates (helper for Keys).
func sortedUnique(ks []int) []int {
	sort.Ints(ks)
	out := ks[:0]
	for i, k := range ks {
		if i == 0 || k != ks[i-1] {
			out = append(out, k)
		}
	}
	return out
}
