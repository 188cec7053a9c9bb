package stm

// Semantic conflict detection seam (ISSUE 9). A transactional data
// structure that tracks its own conflicts at an abstract level — keys and
// range predicates instead of the TVars its nodes happen to live in —
// registers a SemanticOps with the attempt it runs under. The engine then
// treats the structure as one more validation source at commit:
//
//   - Validate runs at the commit point, first thing in commit and before
//     the status CAS. It is where the structure acquires its key-level
//     write locks and checks its logged reads; structure-vs-structure
//     conflicts discovered here route back
//     through the installed contention manager via ResolveConflict, so
//     every manager — including the window managers — arbitrates key-level
//     conflicts exactly as it arbitrates TVar ownership conflicts.
//   - Finalize runs exactly once per attempt, after the attempt has
//     terminated either way, from the engine's cleanup. committed=true
//     means the status CAS landed: the structure applies its buffered
//     writes (splits and other structural side effects happen here, off
//     every conflict set) and releases its key locks. committed=false
//     releases whatever Validate had acquired.
//
// Validate may unwind the attempt with the package's internal retry panic
// (through ResolveConflict's AbortSelf decision or RetryNow); commit
// calls it inside runAttempt, whose recover converts the unwind into an
// aborted attempt, and cleanup — hence Finalize — still runs from the
// attempt loop's abort path.
type SemanticOps interface {
	// Validate checks the structure's semantic read set and acquires its
	// key-level write locks. Returning false aborts the attempt (the
	// engine normalizes the status word); Validate may equally unwind via
	// ResolveConflict or RetryNow.
	Validate(tx *Tx) bool
	// Finalize applies (committed) or discards (aborted) the structure's
	// buffered writes and releases every lock Validate acquired. It runs
	// exactly once per attempt that registered the SemanticOps.
	Finalize(tx *Tx, committed bool)
}

// AddSemantic registers s with the current attempt. Structures call it on
// the first operation of each attempt; duplicate registrations of the same
// value are ignored, so re-registering on every operation is cheap and
// safe. Owner-thread-only.
func (tx *Tx) AddSemantic(s SemanticOps) {
	for _, have := range tx.semOps {
		if have == s {
			return
		}
	}
	tx.semOps = append(tx.semOps, s)
}

// semValidate runs every registered semantic validation. A false return
// leaves the caller responsible for normalizing the status word.
func (tx *Tx) semValidate() bool {
	for _, s := range tx.semOps {
		if !s.Validate(tx) {
			return false
		}
	}
	return true
}

// semFinalize runs every registered Finalize and drops the registrations.
// Called from engine cleanup, which runs exactly once per attempt.
func (tx *Tx) semFinalize() {
	if len(tx.semOps) == 0 {
		return
	}
	committed := tx.Status() == Committed
	for i, s := range tx.semOps {
		s.Finalize(tx, committed)
		tx.semOps[i] = nil
	}
	tx.semOps = tx.semOps[:0]
}

// RetryNow aborts the current attempt and unwinds the enclosing Atomic
// callback (the attempt restarts). Semantic structures call it when they
// discover mid-operation that the attempt is doomed — typically after
// observing Status() != Active, or an incremental revalidation failure.
// Owner-thread-only; must be called from inside the attempt.
func (tx *Tx) RetryNow() {
	tx.selfAbort()
}

// ResolveConflict consults the contention manager about a key-level
// conflict against the enemy attempt named by the packed status word
// enemyWord (captured when the conflict was discovered, see StatusWord)
// and carries out the decision — the exported face of the runtime's own
// resolve path, so semantic structures feed the same policy stream as
// TVar conflicts. attempt counts consecutive resolutions of one blocked
// operation (Polka-style managers use it as their backoff round); pass a
// pointer to a zero int per operation and let ResolveConflict advance it.
// An AbortSelf decision unwinds like RetryNow; a Wait decision may sleep,
// so callers must hold no latches across the call.
func (tx *Tx) ResolveConflict(enemy *Tx, enemyWord uint64, kind Kind, attempt *int) {
	tx.resolve(enemy, enemyWord, kind, attempt)
}

// SemanticOpen marks one semantic operation (a key-level read or write
// against a registered structure): it honors the runtime's SetYieldEvery
// interleaving knob, so semantic workloads exhibit transactional
// contention on undersubscribed hardware exactly like TVar workloads do.
// Structures call it once per operation. Owner-thread-only.
func (tx *Tx) SemanticOpen() {
	tx.maybeYield()
}

// SerialOf extracts the attempt serial from a packed status word (see
// StatusWord). Two words with equal serials name the same attempt of the
// same Tx; semantic structures use it to detect attempt boundaries when
// caching per-attempt state.
func SerialOf(word uint64) uint64 { return serialOf(word) }
