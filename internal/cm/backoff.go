package cm

import (
	"time"

	"wincm/internal/stm"
)

// Backoff timing shared by Backoff, Polka and Timestamp. The DSTM2 managers
// used log₂-spaced exponential spans starting in the microsecond range.
const (
	// baseWait is the first backoff span.
	baseWait = 4 * time.Microsecond
	// maxExp caps the exponent so spans stay bounded: the shift is n−1,
	// so the longest span is 4µs · 2⁹ ≈ 2ms.
	maxExp = 10
)

// backoffSpan returns the exponential span for the n-th round (n ≥ 1).
// The exponent is clamped on both sides: above maxExp so spans stay
// bounded, and below 1 because a caller passing n ≤ 0 would otherwise
// shift by uint(n-1) — an enormous unsigned count that silently produces
// a zero span and turns the backoff into a hot spin.
func backoffSpan(n int) time.Duration {
	if n > maxExp {
		n = maxExp
	}
	if n < 1 {
		n = 1
	}
	return baseWait << uint(n-1)
}

// Backoff aborts itself and relies on the restart delay growing
// exponentially with the number of aborts of the logical transaction. It is
// the STM analogue of test-and-test-and-set spinlock backoff. The runtime
// waits the delay out after rollback (stm.AbortSelf).
type Backoff struct{ stm.NopManager }

// NewBackoff returns a Backoff manager.
func NewBackoff() *Backoff { return &Backoff{} }

// Resolve implements stm.ContentionManager: abort self, restarting after a
// span exponential in the aborts paid by then (this attempt's included).
func (b *Backoff) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	return stm.AbortSelf, backoffSpan(tx.D.Attempts)
}
