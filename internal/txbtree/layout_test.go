package txbtree

import (
	"testing"
	"unsafe"

	"wincm/internal/stm"
)

// TestTxStatesOwnTheirLines: no two threads' transaction states share a
// 64-B line — each struct's bytes before its trailing pad sit on lines of
// their own — so one thread's enter and Finalize writes never invalidate a
// line another core is writing.
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
		owner := map[uintptr]int{}
		for i := 0; i < m; i++ {
			st := tr.state(i)
			p := uintptr(unsafe.Pointer(st))
			n := unsafe.Offsetof(st.scratch) + unsafe.Sizeof(st.scratch)
			for line := p / 64; line <= (p+n-1)/64; line++ {
				if o, ok := owner[line]; ok && o != i {
					t.Errorf("M=%d: thread %d's txState shares a cache line with thread %d's", m, i, o)
				}
				owner[line] = i
			}
		}
	}
}
