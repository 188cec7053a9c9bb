package stm

import "fmt"

// Two transactional protocols run under one attempt loop: the eager
// DSTM-style engine (stm.go, tvar.go: eager write acquisition, open-time
// conflict detection, visible reads, one status-word CAS as the commit
// point) and the TL2-style lazy engine (lazy.go, lazy_tvar.go). A runtime
// is lazy when Runtime.lazy is non-nil; every place the protocols differ —
// Read/Write/ModifyArg, attempt begin, commit, cleanup and the retry
// backoff — branches on that one field. Everything else runs unchanged over
// both: the attempt loop with its fallback token and watchdog, the
// contention managers (both engines route every conflict through
// Tx.resolve, so a manager sees the same Resolve stream whenever the engine
// discovers the conflict) and the probe hooks.

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

// Backend returns the registry name of the engine the runtime runs.
func (rt *Runtime) Backend() string {
	if rt.lazy != nil {
		return BackendLazy
	}
	return BackendEager
}
