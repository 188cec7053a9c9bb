package stm

import (
	"testing"
	"unsafe"
)

// TestSemOpsOwnTheirLines: each thread's semantic-registration array, which
// every kv attempt writes twice (AddSemantic, semFinalize), fills whole
// 64-B lines of its own from the start, so it shares no line with another
// thread's array or any other small object.
func TestSemOpsOwnTheirLines(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8} {
		rt := New(m, karmaTied{})
		for i := 0; i < m; i++ {
			ops := rt.Thread(i).tx.semOps
			p := uintptr(unsafe.Pointer(unsafe.SliceData(ops)))
			n := uintptr(cap(ops)) * unsafe.Sizeof(SemanticOps(nil))
			if n < 64 || p%64 != 0 {
				t.Errorf("M=%d: thread %d's semOps array is %d B at %#x, want ≥ 64 B on a line boundary", m, i, n, p)
			}
		}
	}
}

// TestTickOwnsItsLine: the runtime tick is padded by 56 B on each side, so
// whatever the Runtime's alignment, no other field shares its line.
func TestTickOwnsItsLine(t *testing.T) {
	var rt Runtime
	lo := unsafe.Offsetof(rt.untimed) + unsafe.Sizeof(rt.untimed)
	at := unsafe.Offsetof(rt.tick)
	if at-lo < 56 || unsafe.Sizeof(rt)-(at+unsafe.Sizeof(rt.tick)) < 56 {
		t.Errorf("tick at offset %d of %d B, previous field ends at %d: want 56 B either side", at, unsafe.Sizeof(rt), lo)
	}
}
