package stm_test

import (
	"testing"

	"wincm/internal/stm"
	"wincm/internal/txbtree"
)

// TestPinOnlyOnLocatorLoads: an attempt takes its reclamation pin at its
// first locator load, so an empty attempt and a txbtree attempt (the
// semantic tree opens no TVar) leave the epoch slot unpinned throughout,
// while a TVar attempt pins from its first Read until cleanup.
func TestPinOnlyOnLocatorLoads(t *testing.T) {
	rt := stm.New(1, abortEnemy{})
	stm.ForceLocatorPooling(rt)
	th := rt.Thread(0)
	tree := txbtree.New[int]()
	v := stm.NewTVar(0)
	unpinned := func(what string) {
		t.Helper()
		if stm.EpochPinned(th) {
			t.Errorf("%s: epoch slot pinned", what)
		}
	}
	for _, c := range []struct {
		what string
		fn   func(tx *stm.Tx)
	}{
		{"empty attempt", func(*stm.Tx) {}},
		{"txbtree Insert", func(tx *stm.Tx) { tree.Insert(tx, 1, 1) }},
		{"txbtree Get", func(tx *stm.Tx) { tree.Get(tx, 1) }},
		{"txbtree Get then Insert", func(tx *stm.Tx) {
			x, _ := tree.Get(tx, 1)
			tree.Insert(tx, 2, x)
		}},
	} {
		th.Atomic(func(tx *stm.Tx) {
			c.fn(tx)
			unpinned(c.what + ", inside the attempt")
		})
		unpinned(c.what + ", after the commit")
	}
	th.Atomic(func(tx *stm.Tx) {
		unpinned("TVar attempt before its first Read")
		stm.Write(tx, v, stm.Read(tx, v)+1)
		if !stm.EpochPinned(th) {
			t.Error("TVar attempt unpinned after its first Read")
		}
	})
	unpinned("TVar attempt, after the commit")
}
