package stm

import "time"

// Probe receives callbacks from the runtime's observation points: attempt
// begin, commit and abort, and every conflict decision. Telemetry and trace
// recorders implement it; the STM knows nothing about what they record.
//
// A probe that wants a call at every transactional open implements OpenProbe
// as well; one that does not pays nothing per open.
//
// All hooks except OnResolve run on the transaction's own thread, after
// every variable lock has been released. A probe may sleep for (finite)
// spans or abort the attempt with tx.Abort(); the runtime discovers the
// abort at its next liveness check and restarts the attempt,
// indistinguishable from a remote abort by an enemy. No hook can change a
// conflict's outcome: the fallback token and the contention manager decide,
// and OnResolve only sees the verdict.
type Probe interface {
	// OnBegin runs at the start of every attempt, right after the
	// contention manager's Begin hook and before the first open. Trace
	// recorders use it to stamp the attempt's start.
	OnBegin(tx *Tx)
	// OnCommit runs at the attempt's commit point, before the status CAS
	// and after semantic validation, so the attempt's open and acquire
	// tallies are complete when probes fold them. An attempt whose
	// commit-time validation fails fires OnAbort without OnCommit.
	OnCommit(tx *Tx)
	// OnAbort runs after an attempt aborted and released its objects.
	OnAbort(tx *Tx)
	// OnResolve runs on the attacker's thread once a conflict is decided
	// (by the fallback token or the contention manager) and before the
	// decision is carried out.
	OnResolve(tx, enemy *Tx, kind Kind, dec Decision, wait time.Duration)
}

// OpenProbe is the optional per-open half of the probe contract: a Probe
// that also implements it is called at every transactional open. It is
// separate because it is the expensive half — a list transaction performs
// one open per node, so even a no-op interface call per open is a
// measurable tax. A trace recorder that logs opens implements it; a pure
// telemetry recorder that folds its open tallies in at attempt end
// (see wincm/internal/telemetry) does not, and the runtime then skips the
// per-open dispatch entirely.
type OpenProbe interface {
	// OnOpen runs at the start of every transactional open (read or
	// write), before any conflict is resolved.
	OnOpen(tx *Tx)
	// OnAcquire runs right after the attempt newly acquired ownership of a
	// variable — the most damaging moment to stall, because enemies must
	// now remote-abort the attempt to make progress.
	OnAcquire(tx *Tx)
}

// WithProbe installs a probe on the runtime. The hot paths pay one nil
// check when no probe is installed, and opens pay no more than that unless
// the probe is an OpenProbe.
func WithProbe(p Probe) Option {
	return func(rt *Runtime) {
		rt.probe = p
		rt.openProbe, _ = p.(OpenProbe)
	}
}

// Probe returns the installed probe, or nil.
func (rt *Runtime) Probe() Probe { return rt.probe }

// probeChain fans probe callbacks out to two probes in order. It is how a
// telemetry recorder and a trace recorder share the runtime's single probe
// slot.
type probeChain struct {
	first, second Probe
}

// openChain is a probeChain at least one half of which is an OpenProbe;
// the embedded OpenProbe is that half, or an openPair of both.
type openChain struct {
	probeChain
	OpenProbe
}

// openPair forwards the open hooks to two OpenProbes in order.
type openPair struct {
	first, second OpenProbe
}

// CombineProbes returns a probe that invokes a then b at every hook. A nil
// argument is skipped; two nils yield nil, preserving the
// hot path's no-probe fast path. The open hooks go only to the halves that
// implement OpenProbe, and the result is an OpenProbe only if one does.
func CombineProbes(a, b Probe) Probe {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	chain := probeChain{first: a, second: b}
	ao, aok := a.(OpenProbe)
	bo, bok := b.(OpenProbe)
	switch {
	case aok && bok:
		return openChain{chain, openPair{ao, bo}}
	case aok:
		return openChain{chain, ao}
	case bok:
		return openChain{chain, bo}
	}
	return chain
}

// OnBegin implements Probe.
func (p probeChain) OnBegin(tx *Tx) {
	p.first.OnBegin(tx)
	p.second.OnBegin(tx)
}

// OnOpen implements OpenProbe.
func (p openPair) OnOpen(tx *Tx) {
	p.first.OnOpen(tx)
	p.second.OnOpen(tx)
}

// OnAcquire implements OpenProbe.
func (p openPair) OnAcquire(tx *Tx) {
	p.first.OnAcquire(tx)
	p.second.OnAcquire(tx)
}

// OnCommit implements Probe.
func (p probeChain) OnCommit(tx *Tx) {
	p.first.OnCommit(tx)
	p.second.OnCommit(tx)
}

// OnAbort implements Probe.
func (p probeChain) OnAbort(tx *Tx) {
	p.first.OnAbort(tx)
	p.second.OnAbort(tx)
}

// OnResolve implements Probe.
func (p probeChain) OnResolve(tx, enemy *Tx, kind Kind, dec Decision, wait time.Duration) {
	p.first.OnResolve(tx, enemy, kind, dec, wait)
	p.second.OnResolve(tx, enemy, kind, dec, wait)
}
