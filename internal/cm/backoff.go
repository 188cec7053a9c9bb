package cm

import (
	"sync/atomic"
	"time"

	"wincm/internal/stm"
	"wincm/internal/telemetry"
)

// Backoff timing shared by Backoff and Polka. The DSTM2 managers
// used log₂-spaced exponential spans starting in the microsecond range.
const (
	// baseWait is the first backoff span.
	baseWait = 4 * time.Microsecond
	// maxExp caps the exponent so spans stay bounded (4µs · 2¹⁰ ≈ 4ms).
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
// the STM analogue of test-and-test-and-set spinlock backoff.
type Backoff struct {
	stm.NopManager
	// waits and waitNs count the restart delays paid in Begin. Those
	// sleeps happen outside the runtime's Resolve path, so the runtime's
	// wait count (stm.Runtime.Verdicts) never sees them; the manager
	// publishes them itself through TelemetryGauges.
	waits  atomic.Int64
	waitNs atomic.Int64
}

// NewBackoff returns a Backoff manager.
func NewBackoff() *Backoff { return &Backoff{} }

// Resolve implements stm.ContentionManager.
func (b *Backoff) Resolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int) (stm.Decision, time.Duration) {
	return stm.AbortSelf, 0
}

// Begin implements stm.ContentionManager: delay restarts exponentially in
// the number of prior aborts.
func (b *Backoff) Begin(tx *stm.Tx) {
	if n := tx.D.Attempts - 1; n > 0 {
		span := backoffSpan(n)
		b.waits.Add(1)
		b.waitNs.Add(int64(span))
		sleepFor(span)
	}
}

var _ telemetry.GaugeSource = (*Backoff)(nil)

// TelemetryGauges implements telemetry.GaugeSource.
func (b *Backoff) TelemetryGauges() []telemetry.Gauge {
	return []telemetry.Gauge{
		telemetry.NewGauge("wincm_backoff_restart_waits", "restart delays paid before re-attempts",
			func() float64 { return float64(b.waits.Load()) }),
		telemetry.NewGauge("wincm_backoff_restart_wait_ns", "total restart delay time",
			func() float64 { return float64(b.waitNs.Load()) }),
	}
}

// sleepFor busy-waits for short spans and sleeps for long ones; it mirrors
// the runtime's waiting behaviour for managers that delay in Begin.
func sleepFor(d time.Duration) {
	if d < 50*time.Microsecond {
		deadline := time.Now().Add(d)
		for time.Now().Before(deadline) {
		}
		return
	}
	time.Sleep(d)
}
