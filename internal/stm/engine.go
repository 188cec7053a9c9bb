package stm

import "fmt"

// Engine is the transactional protocol behind a Runtime — the seam the
// contention managers, harness, WAL, chaos and telemetry layers already
// depend on implicitly. It decides *when* conflicts are detected (at open
// time or at commit time), how an attempt's writes become atomically
// visible, and what per-attempt state must be released afterwards.
//
// Everything above the engine is protocol-independent and runs unchanged
// over every backend:
//
//   - the attempt loop (Thread.Atomic): descriptor recycling, CM
//     Begin/Committed/Aborted notification, retry backoff, the
//     serialized-fallback token and the progress watchdog;
//   - the contention-manager contract (manager.go): engines route every
//     transaction-vs-transaction conflict through Tx.resolve, so all
//     managers — including the window managers' frame machinery — see the
//     same Resolve(kind, attempt) stream regardless of *when* the engine
//     discovers the conflict;
//   - the probe surface (probe.go): OnBegin/OnOpen/OnAcquire/OnCommit/
//     OnAbort/PerturbResolve fire at the same protocol points on every
//     backend (an eager backend fires OnAcquire at open time, a lazy one
//     at commit-time lock acquisition — same event, different moment);
//   - the two-phase commit hook (hook.go): PreCommit reserves the durable
//     order slot before the status CAS on every backend, so WAL batch
//     order always matches conflict-serialization order.
//
// The lifecycle methods are unexported: backends must live inside this
// package, because the generic TVar entry points (Read/Write/Modify)
// dispatch to typed per-backend implementations, which a Go interface
// cannot carry. The interface is still the single seam the runtime
// drives — stm.go contains no eager-specific code outside eagerEngine's
// delegate methods.
type Engine interface {
	// Name returns the backend's registry name ("eager" or "lazy"), the
	// value the harness -backend flag selects by.
	Name() string
	// CommitTimeConflicts reports whether the engine defers write
	// acquisition — and hence write-write conflict detection — to commit
	// time. Eager (DSTM-style) engines return false; lazy (TL2-style)
	// engines return true. Harness layers use it for labeling only; no
	// correctness decision may depend on it.
	CommitTimeConflicts() bool

	// begin prepares engine-specific attempt state. It runs at the end of
	// beginAttempt, after the serial has advanced and the reclamation pin
	// is held.
	begin(tx *Tx)
	// commit makes the attempt's writes take effect atomically, or
	// returns false leaving the attempt aborted. It brackets the status
	// CAS with the commit hook exactly as documented in hook.go.
	commit(tx *Tx) bool
	// cleanup releases everything the terminated attempt still holds
	// (ownerships, buffered writes, read logs, the reclamation pin). It
	// must leave every owned locator folded before the Tx is recycled.
	cleanup(tx *Tx)
}

// Backend registry names (see Backends and BackendOption).
const (
	BackendEager = "eager"
	BackendLazy  = "lazy"
)

// Backends returns the registered engine names, in presentation order.
func Backends() []string { return []string{BackendEager, BackendLazy} }

// BackendOption maps a backend name (the harness -backend flag) to the
// runtime option selecting it. The empty string selects the default
// (eager) backend. Unknown names return an error so CLIs can fail fast.
func BackendOption(name string) (Option, error) {
	switch name {
	case "", BackendEager:
		return func(*Runtime) {}, nil
	case BackendLazy:
		return WithLazyBackend(), nil
	default:
		return nil, fmt.Errorf("stm: unknown backend %q (have %v)", name, Backends())
	}
}

// Engine returns the runtime's installed engine.
func (rt *Runtime) Engine() Engine { return rt.engine }

// Backend returns the installed engine's registry name.
func (rt *Runtime) Backend() string { return rt.engine.Name() }

// eagerEngine is the original DSTM-style protocol: eager write
// acquisition, open-time conflict detection, visible reads,
// clone-based deferred update with a single status-word CAS as the commit
// point. The implementation lives in stm.go/tvar.go (commitEager,
// cleanupEager and the default branches of Read/Write/Modify); this type
// is the dispatch handle that makes it one Engine among several.
type eagerEngine struct{}

func (eagerEngine) Name() string              { return BackendEager }
func (eagerEngine) CommitTimeConflicts() bool { return false }
func (eagerEngine) begin(*Tx)                 {}
func (eagerEngine) commit(tx *Tx) bool        { return tx.commitEager() }
func (eagerEngine) cleanup(tx *Tx)            { tx.cleanupEager() }
