package stm

import "time"

// Kind classifies a conflict from the attacker's point of view.
type Kind int

const (
	// WriteWrite: the attacker wants to write a variable the enemy owns.
	WriteWrite Kind = iota
	// WriteRead: the attacker wants to write a variable the enemy reads.
	WriteRead
	// ReadWrite: the attacker wants to read a variable the enemy owns.
	ReadWrite
)

// String returns the conflict-kind name.
func (k Kind) String() string {
	switch k {
	case WriteWrite:
		return "write-write"
	case WriteRead:
		return "write-read"
	case ReadWrite:
		return "read-write"
	default:
		return "invalid"
	}
}

// Decision is a contention manager's verdict on one conflict.
type Decision int

const (
	// AbortEnemy kills the enemy attempt; the attacker retries the open.
	AbortEnemy Decision = iota
	// AbortSelf abandons the attacker's attempt; after rollback the runtime
	// waits out the returned duration, then restarts it.
	AbortSelf
	// Wait pauses the attacker for the returned duration and re-resolves.
	Wait
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case AbortEnemy:
		return "abort-enemy"
	case AbortSelf:
		return "abort-self"
	case Wait:
		return "wait"
	default:
		return "invalid"
	}
}

// ContentionManager decides conflicts between transactions, in the DSTM2
// sense: the runtime calls Resolve the moment a conflict is discovered
// (eager conflict management) and performs the returned decision itself.
//
// Lifecycle hooks run on the transaction's own thread. Resolve runs on the
// attacker's thread and may be called concurrently with hooks of other
// transactions, so shared manager state needs synchronization; per-thread
// state indexed by Desc.ThreadID does not (a thread runs one attempt at a
// time).
//
// Progress contract: a manager must not return Wait from both sides of the
// same conflict pair indefinitely, or the runtime deadlocks. Every manager
// in this repository either never waits, bounds waits (Polka), or breaks
// symmetry by a total order (Greedy's timestamps).
type ContentionManager interface {
	// Begin runs at the start of every attempt, before user code.
	Begin(tx *Tx)
	// Committed runs after the attempt committed.
	Committed(tx *Tx)
	// Aborted runs after the attempt aborted and released its objects.
	Aborted(tx *Tx)
	// Opened runs after a variable newly entered the attempt's read or
	// write set (Polka accumulates its karma priority here).
	Opened(tx *Tx)
	// Resolve decides the conflict of tx against enemy. attempt counts the
	// consecutive Resolve calls for the open operation currently blocked
	// (1 on the first call). The duration is the pause for Wait and the
	// restart delay for AbortSelf; AbortEnemy ignores it.
	Resolve(tx, enemy *Tx, kind Kind, attempt int) (Decision, time.Duration)
}

// NopManager is a ContentionManager base with empty hooks; embed it and
// override what the policy needs.
type NopManager struct{}

// Begin implements ContentionManager.
func (NopManager) Begin(*Tx) {}

// Committed implements ContentionManager.
func (NopManager) Committed(*Tx) {}

// Aborted implements ContentionManager.
func (NopManager) Aborted(*Tx) {}

// Opened implements ContentionManager.
func (NopManager) Opened(*Tx) {}
