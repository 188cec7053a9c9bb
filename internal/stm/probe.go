package stm

import "time"

// Probe receives callbacks from the runtime's observation points: attempt
// begin, every transactional open and new acquisition, commit and abort,
// and every conflict decision. The flight recorder implements it; the STM
// knows nothing about what it records. The runtime counts its own
// commits, aborts and conflict verdicts (Commits, Aborts, Verdicts), so a
// probe is needed only to see individual events.
//
// The runtime decides each attempt's outcome and reports it once: every
// attempt that begins fires exactly one of OnCommit and OnAbort.
//
// All hooks except OnResolve run on the transaction's own thread. OnAbort
// runs after every variable lock has been released; OnCommit runs before
// (see there). A probe may sleep for (finite) spans or abort the attempt
// with tx.Abort(); the runtime discovers the abort at its next liveness
// check and restarts the attempt, indistinguishable from a remote abort by
// an enemy. No hook can change a conflict's outcome: the fallback token and
// the contention manager decide, and OnResolve only sees the verdict.
type Probe interface {
	// OnBegin runs at the start of every attempt, right after the
	// contention manager's Begin hook and before the first open. Trace
	// recorders use it to stamp the attempt's start.
	OnBegin(tx *Tx)
	// OnOpen runs at the start of every transactional open (read or
	// write), before any conflict is resolved.
	OnOpen(tx *Tx)
	// OnAcquire runs right after the attempt newly acquired ownership of a
	// variable — the most damaging moment to stall, because enemies must
	// now remote-abort the attempt to make progress.
	OnAcquire(tx *Tx)
	// OnCommit runs once the attempt has committed: after the status CAS
	// succeeded and before the attempt releases its ownerships and wakes
	// the threads parked on it. The commit is final, so tx.Abort() here
	// has no effect; a span slept here delays every enemy waiting on the
	// attempt.
	OnCommit(tx *Tx)
	// OnAbort runs after an attempt aborted and released its objects.
	OnAbort(tx *Tx)
	// OnResolve runs on the attacker's thread once a conflict is decided
	// (by the fallback token or the contention manager). enemyID is the
	// enemy's logical transaction ID (Desc.ID) and at the clock (Now), both
	// read when the decision was made. An AbortEnemy or AbortSelf verdict
	// is reported before it is carried out, with the restart delay an
	// AbortSelf carries as wait. A Wait starts at at and is reported once
	// it is over, with the time the thread actually waited as wait — less
	// than the span granted when the enemy's attempt ended first — before
	// the attempt checks that it is still alive.
	OnResolve(tx, enemy *Tx, enemyID uint64, at int64, kind Kind, dec Decision, wait time.Duration)
}

// WithProbe installs a probe on the runtime. The hot paths pay one nil
// check when no probe is installed.
func WithProbe(p Probe) Option {
	return func(rt *Runtime) { rt.probe = p }
}

// Probe returns the installed probe, or nil.
func (rt *Runtime) Probe() Probe { return rt.probe }
