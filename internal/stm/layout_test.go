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

// TestThreadLayout: a Thread stays inside the 384 B allocation size class,
// and Tx's parking fields stay inside the status word's 64-B block. Two
// more 8 B fields in Thread took it from 376 to 392 B, the next size class,
// and were measured to raise kv-point's median setup_s from 0.178 to
// 0.210 s (worse in 5 of 6 pairs, 2 vCPUs).
func TestThreadLayout(t *testing.T) {
	if n := unsafe.Sizeof(Thread{}); n > 384 {
		t.Errorf("Thread is %d B, want at most 384 B (its size class)", n)
	}
	var tx Tx
	if n := unsafe.Offsetof(tx.D) - unsafe.Offsetof(tx.status); n != 64 {
		t.Errorf("Tx's status block is %d B, want 64 B: the parking fields fill the status word's padding", n)
	}
}
