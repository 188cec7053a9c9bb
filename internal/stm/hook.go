package stm

// Durability seam: an opt-in commit hook that observes the write sets of
// committing transactions in their serialization order, so an external
// durability layer (wincm/internal/wal) can persist them.
//
// The hook is two-phase, and the split is a correctness requirement, not a
// convenience. With eager ownership and locator folding, a transaction T2
// can observe T1's committed value the instant T1's status CAS lands —
// before T1's commit call returns (settledView exposes the new value while
// T1 still owns the variable). A single post-CAS hook could therefore log
// T2 before the T1 it depends on. PreCommit instead runs on the committing
// thread immediately BEFORE the status CAS and reserves the transaction's
// place in the durable order; any T2 that reads T1's write necessarily
// starts its own PreCommit after T1's CAS, hence after T1's reservation.
// Reservation order is thus consistent with the conflict serialization
// order. PostCommit runs immediately after the CAS and reports whether the
// attempt actually committed, letting the durability layer void
// reservations of attempts that lost the CAS.
//
// Hooks fire only for attempts that staged at least one Intent, so
// read-only transactions and non-durable workloads never pay for the seam
// beyond one predictable branch.

// Intent is one durable write-set entry staged by the transaction body via
// Tx.Stage: an application-defined operation code, key, and encoded value.
// The runtime treats all three as opaque.
type Intent struct {
	// Op is the application's operation code.
	Op uint8
	// Key is the application's key.
	Key uint64
	// Val is the encoded value. It aliases the attempt's staging arena and
	// is only valid until the attempt ends; a hook that needs it longer
	// must copy during PreCommit.
	Val []byte
}

// CommitHook receives the two-phase commit notifications. Implementations
// must be safe for concurrent use from all runtime threads, must not
// panic, and must not start transactions on the same runtime. PreCommit
// and PostCommit for one attempt run back to back on the committing
// thread; both must be fast — they sit on the commit path of every
// staging transaction.
type CommitHook interface {
	// PreCommit runs after the attempt's body (and, on the lazy engine,
	// after read-set validation) and immediately before the commit status CAS. It
	// reserves the attempt's slot in the durable order and returns an
	// opaque token identifying the reservation. A returned error is
	// recorded in the committing transaction's TxInfo.HookErr; the
	// in-memory commit still proceeds (durability is reported, never
	// blocking), and PostCommit is still invoked with the returned token.
	PreCommit(tx *Tx) (token any, err error)
	// PostCommit runs immediately after the commit CAS with the token from
	// PreCommit and the CAS outcome. committed=false means the attempt
	// aborted and the reservation must be voided. A returned error is
	// recorded like a PreCommit error.
	PostCommit(tx *Tx, token any, committed bool) error
}

// WithCommitHook installs h as the runtime's durability hook. Construction
// time only, like every Option.
func WithCommitHook(h CommitHook) Option {
	return func(rt *Runtime) { rt.commitHook = h }
}

// CommitHook returns the installed durability hook, or nil.
func (rt *Runtime) CommitHook() CommitHook { return rt.commitHook }

// Stage appends one durable write-set entry to the current attempt. It is
// a no-op when the runtime has no commit hook, so workloads can stage
// unconditionally and pay nothing while durability is off. val is copied
// into the attempt's staging arena (recycled across attempts, so steady
// state allocates nothing); the entries are cleared when the attempt ends
// and re-staged by the retry, keeping intents exactly in sync with the
// attempt that commits. Owner-thread-only, like all Tx mutation.
func (tx *Tx) Stage(op uint8, key uint64, val []byte) {
	if tx.rt.commitHook == nil {
		return
	}
	n := len(tx.stageBuf)
	tx.stageBuf = append(tx.stageBuf, val...)
	tx.intents = append(tx.intents, Intent{Op: op, Key: key, Val: tx.stageBuf[n:len(tx.stageBuf):len(tx.stageBuf)]})
}

// Intents returns the entries staged by the current attempt. Hooks read it
// during PreCommit; the slice and its values are invalidated when the
// attempt ends.
func (tx *Tx) Intents() []Intent { return tx.intents }
