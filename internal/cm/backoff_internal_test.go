package cm

import (
	"testing"
	"time"

	"wincm/internal/stm"
)

func TestBackoffSpanGrowsAndCaps(t *testing.T) {
	last := time.Duration(0)
	for n := 1; n <= maxExp; n++ {
		s := backoffSpan(n)
		if s <= last {
			t.Fatalf("span(%d) = %v not growing from %v", n, s, last)
		}
		last = s
	}
	cap := backoffSpan(maxExp)
	for n := maxExp + 1; n < maxExp+5; n++ {
		if got := backoffSpan(n); got != cap {
			t.Errorf("span(%d) = %v, want capped %v", n, got, cap)
		}
	}
	if backoffSpan(1) != baseWait {
		t.Errorf("span(1) = %v, want %v", backoffSpan(1), baseWait)
	}
	// The shift is n−1 with n clamped to maxExp: 4µs · 2⁹.
	if want := 2048 * time.Microsecond; cap != want {
		t.Errorf("capped span = %v, want %v", cap, want)
	}
}

// TestBackoffResolveCarriesRestartSpan: Backoff aborts itself and hands
// the runtime the span for the restart after this attempt, exponential in
// the aborts paid by then (the current attempt's included).
func TestBackoffResolveCarriesRestartSpan(t *testing.T) {
	b := NewBackoff()
	for _, attempts := range []int{1, 2, 5, maxExp, maxExp + 3} {
		tx := &stm.Tx{D: &stm.Desc{Attempts: attempts}}
		dec, span := b.Resolve(tx, tx, stm.WriteWrite, 1)
		if dec != stm.AbortSelf || span != backoffSpan(attempts) {
			t.Errorf("attempt %d: Resolve = (%v, %v), want (abort-self, %v)", attempts, dec, span, backoffSpan(attempts))
		}
	}
}

// Regression: n ≤ 0 used to shift by uint(n-1) — an enormous unsigned
// count — silently producing a zero span (a hot spin instead of a
// backoff). The exponent must clamp below as well as above.
func TestBackoffSpanClampsNonPositiveRounds(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if got := backoffSpan(n); got != baseWait {
			t.Errorf("span(%d) = %v, want clamped %v", n, got, baseWait)
		}
	}
	for n := 1; n < maxExp+5; n++ {
		if got := backoffSpan(n); got <= 0 {
			t.Errorf("span(%d) = %v, want positive", n, got)
		}
	}
}
