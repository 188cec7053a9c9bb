package txbtree

import (
	"testing"
	"unsafe"

	"wincm/internal/stm"
)

// TestTxStatesOwnTheirLines: no two threads' transaction states share a
// 64-B line — each struct's bytes before its trailing 64-B pad, the write
// finger included, sit on lines of their own — so one thread's enter,
// write and Finalize stores never invalidate a line another core is
// writing. The states table every enter reads fills whole lines of its own
// too, so no small object another thread writes (a semantic-registration
// array, say) shares its line.
func TestTxStatesOwnTheirLines(t *testing.T) {
	for _, m := range []int{2, 4, 8} {
		tr := New[int64]()
		rt := stm.New(m, fixedCM{dec: stm.AbortSelf})
		for i := 0; i < m; i++ {
			rt.Thread(i).Atomic(func(tx *stm.Tx) {
				tr.Get(tx, -1)
				tr.Insert(tx, i, 1)
			})
		}
		table := *tr.states.Load()
		p := uintptr(unsafe.Pointer(unsafe.SliceData(table)))
		if n := uintptr(cap(table)) * unsafe.Sizeof(table[0]); n < 64 || p%64 != 0 {
			t.Errorf("M=%d: states table is %d B at %#x, want ≥ 64 B on a line boundary", m, n, p)
		}
		owner := map[uintptr]int{}
		for i := 0; i < m; i++ {
			st := tr.state(i)
			p := uintptr(unsafe.Pointer(st))
			n := unsafe.Sizeof(*st) - 64 // every field before the pad
			if end := unsafe.Offsetof(st.fhi) + unsafe.Sizeof(st.fhi); end > n {
				t.Fatalf("the finger ends at byte %d, inside the trailing pad at %d", end, n)
			}
			for line := p / 64; line <= (p+n-1)/64; line++ {
				if o, ok := owner[line]; ok && o != i {
					t.Errorf("M=%d: thread %d's txState shares a cache line with thread %d's", m, i, o)
				}
				owner[line] = i
			}
		}
	}
}
