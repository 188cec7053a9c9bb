// Package core implements the paper's contribution: window-based greedy
// contention managers for transactional memory (Sharma & Busch, IPDPS'11).
//
// Model: each thread P_i executes windows of N transactions. At the start
// of a window the thread draws a random delay q_i ∈ [0, α_i−1] frames,
// α_i = min(N, C_i/ln(MN)), where C_i is (an estimate of) the maximum
// number of transactions any of P_i's transactions conflicts with. The j-th
// transaction of the window is assigned frame F_ij = q_i + (j−1); it
// executes immediately in low priority and switches to high priority when
// its assigned frame starts. Conflicts are resolved lexicographically on
// the priority vector (π⁽¹⁾, π⁽²⁾): π⁽¹⁾ is 0 for high and 1 for low
// priority, and π⁽²⁾ ∈ [1, M] is a RandomizedRounds-style random priority
// redrawn after every abort. The random delays shift conflicting
// transactions into different frames so their executions do not coincide.
//
// Variants (Section III-A of the paper):
//
//   - Online: fixed frames, C_i known (configured).
//   - Online-Dynamic: frames contract as soon as all transactions assigned
//     to the current frame have committed, and expand (bounded by one extra
//     frame) when they have not.
//   - Adaptive: starts with C_i = 1 and doubles it whenever a transaction
//     misses its assigned frame (a "bad event"), restarting the window
//     schedule for the remaining transactions.
//   - Adaptive-Improved: grows the estimate in proportion to a contention
//     intensity EWMA (as in Adaptive Transaction Scheduling) instead of
//     plain doubling, and decays it after clean windows.
//   - Adaptive-Improved-Dynamic: Adaptive-Improved with dynamic frames.
//
// The Offline algorithm resolves conflicts through the explicit conflict
// graph and therefore needs global knowledge; as in the paper it is not run
// on the STM — see wincm/internal/sim for its discrete-time implementation.
package core

import (
	"fmt"
	"math"

	"wincm/internal/cm"
	"wincm/internal/stm"
)

// Variant selects a member of the window-based family.
type Variant int

const (
	// Online is the fixed-frame algorithm with configured C_i.
	Online Variant = iota
	// OnlineDynamic adds dynamic frame contraction/expansion.
	OnlineDynamic
	// Adaptive guesses C_i by doubling on bad events.
	Adaptive
	// AdaptiveImproved guesses C_i from a contention-intensity EWMA.
	AdaptiveImproved
	// AdaptiveImprovedDynamic is AdaptiveImproved with dynamic frames.
	AdaptiveImprovedDynamic
)

// String returns the variant name used throughout the harness and CLI.
func (v Variant) String() string {
	switch v {
	case Online:
		return "online"
	case OnlineDynamic:
		return "online-dynamic"
	case Adaptive:
		return "adaptive"
	case AdaptiveImproved:
		return "adaptive-improved"
	case AdaptiveImprovedDynamic:
		return "adaptive-improved-dynamic"
	default:
		return "invalid"
	}
}

// Variants lists all STM-runnable window variants in presentation order.
func Variants() []Variant {
	return []Variant{Online, OnlineDynamic, Adaptive, AdaptiveImproved, AdaptiveImprovedDynamic}
}

// ParseVariant converts a name produced by Variant.String back.
func ParseVariant(s string) (Variant, error) {
	for _, v := range Variants() {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: unknown window variant %q", s)
}

// Config parameterizes a window manager. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// M is the number of threads; N the transactions per window.
	M, N int
	// InitialC is the per-thread contention estimate C_i the Online
	// variants assume known; adaptive variants start from 1 regardless.
	InitialC int
	// Dynamic enables frame contraction/expansion.
	Dynamic bool
	// Estimator selects how C_i evolves.
	Estimator EstimatorKind
	// Seed makes the random delays and priorities reproducible.
	Seed uint64
}

// loserPatience is the number of short waiting rounds a conflict loser is
// granted before aborting itself. The published algorithm aborts the loser
// immediately; a small patience keeps the loser's read set — and thus its
// traversal work — alive across the winner's commit, the same effect
// DSTM2's revalidating retries have. DESIGN.md §1.6 has the measurement.
const loserPatience = 12

// EstimatorKind selects the contention-estimate policy.
type EstimatorKind int

const (
	// EstimatorFixed keeps C_i = InitialC (Online variants).
	EstimatorFixed EstimatorKind = iota
	// EstimatorDoubling doubles C_i on every bad event (Adaptive).
	EstimatorDoubling
	// EstimatorCI grows C_i by the contention-intensity factor and decays
	// it after clean windows (Adaptive-Improved).
	EstimatorCI
)

// DefaultConfig returns the paper's experimental configuration for variant
// v with m threads: N = 50 and, for the Online variants, C_i defaulted to
// m (each transaction presumed to conflict with up to one transaction per
// other thread at a time).
func DefaultConfig(v Variant, m int) Config {
	c := Config{
		M:        m,
		N:        50,
		InitialC: m,
		Seed:     1,
	}
	switch v {
	case Online:
		c.Estimator = EstimatorFixed
	case OnlineDynamic:
		c.Estimator = EstimatorFixed
		c.Dynamic = true
	case Adaptive:
		c.Estimator = EstimatorDoubling
	case AdaptiveImproved:
		c.Estimator = EstimatorCI
	case AdaptiveImprovedDynamic:
		c.Estimator = EstimatorCI
		c.Dynamic = true
	}
	return c
}

// New builds the window manager for variant v with m threads and the
// paper-default configuration.
func New(v Variant, m int) *Manager {
	return NewManager(DefaultConfig(v, m))
}

// NewNamed builds the contention manager registered under name for m
// threads — the one constructor from a manager name. A window variant is
// built from DefaultConfig (the paper's N = 50) with the given seed and is
// also returned as wm; any other name goes to the cm registry and wm is
// nil.
func NewNamed(name string, m int, seed uint64) (mgr stm.ContentionManager, wm *Manager, err error) {
	v, err := ParseVariant(name)
	if err != nil {
		mgr, err = cm.New(name, m)
		return mgr, nil, err
	}
	cfg := DefaultConfig(v, m)
	cfg.Seed = seed
	wm = NewManager(cfg)
	return wm, wm, nil
}

// lnMN returns ln(M·N), clamped away from zero for tiny configurations.
func lnMN(m, n int) float64 {
	l := math.Log(float64(m * n))
	if l < 1 {
		return 1
	}
	return l
}

// alpha computes α_i = min(N, max(1, round(C/ln(MN)))), the number of
// frames the initial random delay is drawn from.
func alpha(c float64, m, n int) int64 {
	a := int64(math.Round(c / lnMN(m, n)))
	if a < 1 {
		a = 1
	}
	if a > int64(n) {
		a = int64(n)
	}
	return a
}

func init() {
	for _, v := range Variants() {
		v := v
		cm.Register(v.String(), func(m int) stm.ContentionManager {
			return New(v, m)
		})
	}
}
