package stm

import (
	"runtime"
	"time"
)

// Serialized-fallback token. The obstruction-free STM plus any of the
// repository's contention managers makes no progress guarantee for an
// individual transaction: Polka can starve a transaction indefinitely and
// an always-abort-the-enemy policy can livelock (the reason the paper's
// window managers exist).
// The fallback token turns that into a hard guarantee: a transaction that
// exhausts its attempt or deadline budget acquires the runtime-wide token,
// and the runtime decides every conflict that involves the holder in the
// holder's favor before the contention manager is consulted
// (fallbackResolve, called from resolve). No manager can override that, so
// the guarantee holds for any policy. At most one transaction holds the
// token, so the escape hatch serializes starving transactions; the common
// case stays obstruction-free because the token is untouched until a budget
// trips.
//
// The token is a pointer to the holder's Desc rather than a flag so that
// a holder that is no longer in flight is detectable (Thread.inFlight):
// clearStaleFallback reclaims the token from it for the next starving
// transaction. That may happen from the holder's commit CAS on, while the
// holder still runs its cleanup and Committed callback. It is safe: a
// committed attempt wins no further conflict, and commit records
// Tx.withToken before the CAS, so the holder's release and its fallback
// accounting (HoldsFallback, TxInfo.Fallback) never read the reclaimed
// token.

// fallbackPollSpan is the wait granted to a transaction blocked behind the
// token holder between re-examinations.
const fallbackPollSpan = 10 * time.Microsecond

// WithFallback arms the serialized-fallback escape hatch: a transaction
// whose attempt count reaches maxAttempts, or which is still retrying
// deadline after its first abort, acquires the runtime's fallback token
// before its next attempt and then wins every conflict until it commits.
// Zero disables the corresponding budget; arming neither leaves the
// runtime's behavior unchanged.
func WithFallback(maxAttempts int, deadline time.Duration) Option {
	return func(rt *Runtime) {
		rt.maxAttempts = maxAttempts
		rt.txDeadline = deadline
	}
}

// FallbackHolder returns the descriptor currently holding the serialized
// fallback token, or nil. Diagnostics and tests only.
func (rt *Runtime) FallbackHolder() *Desc { return rt.fallback.Load() }

// HoldsFallback reports whether this attempt's transaction holds the
// serialized-fallback token; once the attempt has committed, whether it
// committed holding it (the token may already be reclaimed by then).
// Owner-thread use: managers call it from their callbacks.
func (tx *Tx) HoldsFallback() bool {
	if tx.Status() == Committed {
		return tx.withToken
	}
	return tx.rt.fallback.Load() == tx.D
}

// fallbackResolve returns the decision the serialized-fallback token
// imposes on a conflict, if any; ok false means no token is involved and
// the contention manager decides. The token holder always wins: it aborts
// any enemy, and an attacker conflicting with the holder polls until the
// holder is done.
func fallbackResolve(tx, enemy *Tx) (dec Decision, wait time.Duration, ok bool) {
	h := tx.rt.fallback.Load()
	if h == nil {
		return 0, 0, false
	}
	if h == tx.D {
		return AbortEnemy, 0, true
	}
	if h == enemy.D {
		return Wait, fallbackPollSpan, true
	}
	return 0, 0, false
}

// needFallback reports whether d has exhausted its budgets.
func (rt *Runtime) needFallback(d *Desc) bool {
	if d.MaxAttempts > 0 && d.Attempts >= d.MaxAttempts {
		return true
	}
	if d.Deadline > 0 && now() >= d.Deadline {
		return true
	}
	return false
}

// acquireFallback blocks until d holds the token. Starving transactions
// queue here between attempts (holding no objects), so waiting cannot
// deadlock; the current holder wins all conflicts and therefore finishes.
func (rt *Runtime) acquireFallback(d *Desc) {
	for !rt.fallback.CompareAndSwap(nil, d) {
		rt.clearStaleFallback()
		runtime.Gosched()
	}
}

// releaseFallback frees the token if d holds it.
func (rt *Runtime) releaseFallback(d *Desc) {
	rt.fallback.CompareAndSwap(d, nil)
}

// clearStaleFallback reclaims the token if its holder is no longer in
// flight: either the holder has passed its commit CAS (commit recorded
// withToken before it, so the holder's own release is unaffected), or the
// watchdog granted the token to a transaction that committed before
// hearing of it. Neither desc can win another conflict in that attempt,
// so reclaiming is safe.
func (rt *Runtime) clearStaleFallback() {
	h := rt.fallback.Load()
	if h == nil {
		return
	}
	if !rt.threads[h.ThreadID].inFlight() {
		rt.fallback.CompareAndSwap(h, nil)
	}
}
