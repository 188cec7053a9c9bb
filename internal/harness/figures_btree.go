package harness

import "fmt"

// BTreeFig measures what key-level (semantic) conflict detection buys:
// the rbtree workload (txmap — a red-black tree of TVars, where every
// traversal node lands in the conflict set) against the btree workload
// (txbtree — a B-link tree with key-level read/write sets, where only
// the keys touched conflict) under every registered contention manager
// across the thread sweep. Same operation mix, same key range; the only
// variable is the conflict-detection granularity, so a btree column
// pulling ahead as M grows is the semantic layer paying for itself.
func BTreeFig(o Options) ([]Table, error) {
	o, err := o.resolve()
	if err != nil {
		return nil, err
	}
	threads := o.BTreeThreads
	if len(threads) == 0 {
		threads = []int{1, 4, 8, 16}
	}
	g := newGrid(o)
	t := Table{Title: "Semantic conflict detection: rbtree (TVar nodes) vs btree (key-level) (commits/s)"}
	t.Columns = append(t.Columns, "manager")
	for _, m := range threads {
		t.Columns = append(t.Columns, fmt.Sprintf("rbtree M=%d", m), fmt.Sprintf("btree M=%d", m))
	}
	for _, mgr := range ManagerNames() {
		row := []string{mgr}
		for _, m := range threads {
			for _, b := range []string{"rbtree", "btree"} {
				rs, err := g.cell(b, mgr, m)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.0f", mean(rs, Result.Throughput)))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return []Table{t}, nil
}
