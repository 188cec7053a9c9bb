// Package chaos is a deterministic fault-injection layer for the STM
// runtime. It implements stm.Probe and, at the runtime's probe points
// (open, acquire, commit, abort, conflict resolution), injects the
// adversarial schedules that separate contention managers in the worst
// case rather than on average (Sharma & Busch study exactly those
// schedules analytically):
//
//   - randomized delays: an attempt pauses briefly mid-flight, shifting
//     interleavings;
//   - spurious aborts: an attempt is killed as if an enemy had won a
//     conflict it never had;
//   - stalls: an attempt freezes for a long span while holding acquired
//     objects, simulating a preempted or crashed thread — the schedule
//     obstruction-freedom is defined against;
//   - decision perturbation: the contention manager's verdict on a
//     conflict is replaced, stressing the managers' recovery from wrong
//     decisions.
//
// Every fault is drawn from a per-thread wincm/internal/rng stream split
// from the master seed, and all hooks run on the transaction's own thread
// (PerturbResolve on the attacker's), so the i-th probe event of thread t
// receives the same fault in every run with the same seed: a failing
// schedule replays from its seed.
//
// The injector never targets the holder of the serialized-fallback token
// and never perturbs a conflict the token already decides, so the
// runtime's progress guarantee survives arbitrary injection rates.
package chaos

import (
	"sync/atomic"
	"time"

	"wincm/internal/rng"
	"wincm/internal/stm"
)

// Config parameterizes an Injector. Probabilities are per probe event;
// zero disables the corresponding fault class.
type Config struct {
	// Seed drives the per-thread fault schedules.
	Seed uint64
	// Threads is the runtime's thread count M (one rng stream each).
	Threads int
	// DelayProb is the chance of a short randomized delay at an open or
	// commit point; the delay is uniform in (0, MaxDelay].
	DelayProb float64
	// MaxDelay bounds injected delays.
	MaxDelay time.Duration
	// AbortProb is the chance of a spurious abort at an open or commit
	// point.
	AbortProb float64
	// StallProb is the chance that the attempt freezes at an open or
	// acquire point for a span uniform in (0, StallDur], typically while
	// holding acquired objects.
	StallProb float64
	// StallDur bounds injected stalls.
	StallDur time.Duration
	// PerturbProb is the chance that a contention-manager decision is
	// replaced by the next decision in the cycle abort-enemy → wait →
	// abort-self → abort-enemy (a perturbed wait is bounded by MaxDelay).
	PerturbProb float64
}

// DefaultConfig returns a moderate fault load for m threads: ~2% delays,
// ~1% stalls, 0.5% spurious aborts and 2% perturbed decisions.
func DefaultConfig(m int) Config {
	return Config{
		Seed:        1,
		Threads:     m,
		DelayProb:   0.02,
		MaxDelay:    100 * time.Microsecond,
		AbortProb:   0.005,
		StallProb:   0.01,
		StallDur:    2 * time.Millisecond,
		PerturbProb: 0.02,
	}
}

// Stats are the injector's event counts.
type Stats struct {
	// Delays is the number of randomized delays injected.
	Delays int64
	// SpuriousAborts is the number of attempts killed spuriously.
	SpuriousAborts int64
	// Stalls is the number of mid-flight freezes injected.
	Stalls int64
	// Perturbs is the number of contention-manager decisions replaced.
	Perturbs int64
}

// Injector implements stm.Probe with seeded, reproducible faults.
type Injector struct {
	cfg     Config
	streams []*rng.Rand // one per thread; only that thread draws from it

	// disabled gates every hook; active counts hooks currently executing
	// so Shutdown can drain in-flight faults (a stall sleeping in OnOpen
	// must finish before the runtime is declared quiet).
	disabled atomic.Bool
	active   atomic.Int64

	delays   atomic.Int64
	spurious atomic.Int64
	stalls   atomic.Int64
	perturbs atomic.Int64
}

// The open hooks are optional in the probe contract; a signature drift here
// would silently drop them, so both halves are asserted.
var (
	_ stm.Probe     = (*Injector)(nil)
	_ stm.OpenProbe = (*Injector)(nil)
)

// New builds an injector for cfg. Threads must match the runtime the
// injector is installed on (faults are keyed by Desc.ThreadID).
func New(cfg Config) *Injector {
	if cfg.Threads <= 0 {
		panic("chaos: Config needs Threads ≥ 1")
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 100 * time.Microsecond
	}
	if cfg.StallDur <= 0 {
		cfg.StallDur = 2 * time.Millisecond
	}
	in := &Injector{cfg: cfg, streams: make([]*rng.Rand, cfg.Threads)}
	master := rng.New(cfg.Seed)
	for i := range in.streams {
		in.streams[i] = master.Split()
	}
	return in
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns the event counts so far.
func (in *Injector) Stats() Stats {
	return Stats{
		Delays:         in.delays.Load(),
		SpuriousAborts: in.spurious.Load(),
		Stalls:         in.stalls.Load(),
		Perturbs:       in.perturbs.Load(),
	}
}

// stream returns tx's thread-local fault stream.
func (in *Injector) stream(tx *stm.Tx) *rng.Rand {
	return in.streams[tx.D.ThreadID]
}

// enter gates a hook invocation. The increment-before-check order pairs
// with Shutdown's disable-then-drain: once Shutdown observes active == 0
// after setting disabled, no hook body can be running or start running.
func (in *Injector) enter() bool {
	in.active.Add(1)
	if in.disabled.Load() {
		in.active.Add(-1)
		return false
	}
	return true
}

func (in *Injector) exit() { in.active.Add(-1) }

// Shutdown disables all fault injection and waits for in-flight hooks —
// including stalls currently sleeping mid-attempt — to drain. Harnesses
// must call it when a run finishes: without the drain, a stall injected
// near the end of one run can still be sleeping (and its thread's rng
// stream mid-draw) when the next run starts, so back-to-back runs inherit
// stale injected state and the second schedule is no longer a pure
// function of its seed. After Shutdown the injector is inert until Reset.
func (in *Injector) Shutdown() {
	in.disabled.Store(true)
	for in.active.Load() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// Reset re-arms a Shutdown injector for a fresh run: per-thread fault
// streams are rebuilt from the configured seed and the event counters are
// cleared, so the next run replays the exact schedule a fresh New(cfg)
// would produce. Must not be called while a runtime is using the injector.
func (in *Injector) Reset() {
	master := rng.New(in.cfg.Seed)
	for i := range in.streams {
		in.streams[i] = master.Split()
	}
	in.delays.Store(0)
	in.spurious.Store(0)
	in.stalls.Store(0)
	in.perturbs.Store(0)
	in.disabled.Store(false)
}

// OnBegin implements stm.Probe (no-op: faults fire inside opens, where
// they hit speculative state; an attempt that has opened nothing yet has
// nothing to damage).
func (in *Injector) OnBegin(*stm.Tx) {}

// OnOpen implements stm.OpenProbe: delays, stalls and spurious aborts at the
// start of an open.
func (in *Injector) OnOpen(tx *stm.Tx) {
	if tx.HoldsFallback() || !in.enter() {
		return
	}
	defer in.exit()
	r := in.stream(tx)
	// Draw all classes unconditionally so the stream advances identically
	// regardless of which faults fire — reproducibility of the whole
	// schedule, not just the first fault.
	delay := r.Bool(in.cfg.DelayProb)
	stall := r.Bool(in.cfg.StallProb)
	kill := r.Bool(in.cfg.AbortProb)
	span := in.span(r, in.cfg.MaxDelay)
	stallSpan := in.span(r, in.cfg.StallDur)
	if delay {
		in.delays.Add(1)
		time.Sleep(span)
	}
	if stall {
		in.stalls.Add(1)
		time.Sleep(stallSpan)
	}
	if kill && tx.Abort() {
		in.spurious.Add(1)
	}
}

// OnAcquire implements stm.OpenProbe: stalls right after an ownership
// acquisition, the worst moment for everyone else.
func (in *Injector) OnAcquire(tx *stm.Tx) {
	if tx.HoldsFallback() || !in.enter() {
		return
	}
	defer in.exit()
	r := in.stream(tx)
	stall := r.Bool(in.cfg.StallProb)
	span := in.span(r, in.cfg.StallDur)
	if stall {
		in.stalls.Add(1)
		time.Sleep(span)
	}
}

// OnCommit implements stm.Probe: delays and spurious aborts at the commit
// point, stressing the window between validation and the status CAS.
func (in *Injector) OnCommit(tx *stm.Tx) {
	if tx.HoldsFallback() || !in.enter() {
		return
	}
	defer in.exit()
	r := in.stream(tx)
	delay := r.Bool(in.cfg.DelayProb)
	kill := r.Bool(in.cfg.AbortProb)
	span := in.span(r, in.cfg.MaxDelay)
	if delay {
		in.delays.Add(1)
		time.Sleep(span)
	}
	if kill && tx.Abort() {
		in.spurious.Add(1)
	}
}

// OnAbort implements stm.Probe (no fault class fires after an abort; the
// hook keeps the interface symmetric for future schedules).
func (in *Injector) OnAbort(*stm.Tx) {}

// PerturbResolve implements stm.Probe: with PerturbProb, replace the
// manager's decision with the next one in the cycle. Conflicts involving
// the fallback-token holder pass through untouched — chaos must not void
// the progress guarantee.
func (in *Injector) PerturbResolve(tx, enemy *stm.Tx, kind stm.Kind, attempt int, dec stm.Decision, wait time.Duration) (stm.Decision, time.Duration) {
	if tx.HoldsFallback() || enemy.HoldsFallback() || !in.enter() {
		return dec, wait
	}
	defer in.exit()
	r := in.stream(tx)
	if !r.Bool(in.cfg.PerturbProb) {
		return dec, wait
	}
	in.perturbs.Add(1)
	switch dec {
	case stm.AbortEnemy:
		return stm.Wait, in.span(r, in.cfg.MaxDelay)
	case stm.Wait:
		return stm.AbortSelf, 0
	default: // AbortSelf
		return stm.AbortEnemy, 0
	}
}

// span draws a duration uniform in (0, max].
func (in *Injector) span(r *rng.Rand, max time.Duration) time.Duration {
	return time.Duration(1 + r.Uint64n(uint64(max)))
}
