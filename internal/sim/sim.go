// Package sim is a discrete-time simulator of the execution-window model,
// implementing the paper's Offline and Online algorithms exactly as
// analyzed (Section II-B) so their makespan theorems can be checked
// empirically — including the Offline algorithm, which needs the explicit
// conflict graph and therefore cannot run on the STM.
//
// Model: M threads each execute N unit-duration (τ = 1 step) transactions
// in sequence; transaction (i, j) is node i·N+j of a conflict graph. In
// every step each thread has at most one pending transaction; a set of
// pairwise non-conflicting pending transactions executes and commits, the
// rest abort (Online) or wait (Offline) and retry. The makespan is the
// number of steps until all M·N transactions have committed.
package sim

import (
	"fmt"
	"math"

	"wincm/internal/conflictgraph"
	"wincm/internal/rng"
)

// Algorithm selects the scheduling algorithm under simulation.
type Algorithm int

const (
	// Offline is the paper's first algorithm: frames of Θ(ln MN) steps;
	// conflicts among equal-priority transactions resolved through the
	// conflict graph (greedy maximal independent sets, high priority
	// first).
	Offline Algorithm = iota
	// Online is the paper's second algorithm: frames of Θ(ln² MN) steps;
	// conflicts resolved RandomizedRounds-style by random priorities
	// π⁽²⁾ redrawn after every abort.
	Online
	// OneShot is the baseline without windows: no delays, no frames;
	// conflicts resolved by random priorities only. It models running N
	// independent one-shot instances back to back.
	OneShot
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Offline:
		return "offline"
	case Online:
		return "online"
	case OneShot:
		return "one-shot"
	default:
		return "invalid"
	}
}

// Params configures one simulation.
type Params struct {
	// M threads × N transactions per thread.
	M, N int
	// C bounds the conflict-graph degree (the contention measure).
	C int
	// ColBias is the fraction of conflicts kept inside window columns.
	ColBias float64
	// Algorithm under simulation.
	Algorithm Algorithm
	// FrameLen overrides the frame length in steps (0 = the theoretical
	// default: ⌈ln MN⌉ for Offline, ⌈ln² MN⌉ for Online).
	FrameLen int
	// ZeroDelay forces q_i = 0 (ablation of the random shift).
	ZeroDelay bool
	// Resources switches workload generation to the resource model of the
	// competitive-ratio theorems: when > 0, conflicts derive from s =
	// Resources shared resources instead of a random bounded-degree graph
	// (C and ColBias are then ignored) and Result gains an optimal lower
	// bound and competitive ratio.
	Resources int
	// WritesPerTx and ReadsPerTx cap each transaction's resource sets in
	// the resource model (defaults 2 and 4).
	WritesPerTx, ReadsPerTx int
	// Seed drives graph generation and all random choices.
	Seed uint64
}

// Result reports one simulated schedule.
type Result struct {
	// Makespan is the schedule length in steps.
	Makespan int
	// Aborts counts pending-but-not-executed transaction steps.
	Aborts int
	// C is the realized maximum degree of the generated conflict graph.
	C int
	// Bound is the theorem's makespan expression for the realized C:
	// C + N·ln(MN) for Offline/OneShot and C·ln(MN) + N·ln²(MN) for
	// Online (constants stripped); Makespan/Bound should stay below a
	// modest constant if the theorems hold.
	Bound float64
	// OptLB is a lower bound on the optimal schedule (resource model
	// only: max of N and the peak per-resource write load).
	OptLB int
	// Ratio is Makespan/OptLB, the empirical competitive ratio
	// (Theorems 2.2/2.4 bound it by O(s + log MN) resp.
	// O(s·log MN + log² MN)). Zero outside the resource model.
	Ratio float64
}

// lnMN returns ln(M·N) clamped to ≥ 1.
func lnMN(m, n int) float64 {
	l := math.Log(float64(m * n))
	if l < 1 {
		return 1
	}
	return l
}

// Run simulates one window execution.
func Run(p Params) (Result, error) {
	if p.M < 1 || p.N < 1 {
		return Result{}, fmt.Errorf("sim: need M ≥ 1 and N ≥ 1, got %d×%d", p.M, p.N)
	}
	if p.C < 0 {
		return Result{}, fmt.Errorf("sim: negative C")
	}
	if !(p.ColBias >= 0 && p.ColBias <= 1) { // also rejects NaN
		return Result{}, fmt.Errorf("sim: ColBias must be in [0, 1] (got %v)", p.ColBias)
	}
	r := rng.New(p.Seed)
	if p.Resources > 0 {
		kw, kr := p.WritesPerTx, p.ReadsPerTx
		if kw <= 0 {
			kw = 2
		}
		if kr == 0 {
			kr = 4
		} else if kr < 0 {
			kr = 0
		}
		w := conflictgraph.NewResourceWorkload(p.M, p.N, p.Resources, kw, kr, r)
		g := w.Graph()
		res, err := RunOnGraph(p, g, r)
		if err != nil {
			return res, err
		}
		res.OptLB = w.OptimalLowerBound(p.N)
		res.Ratio = float64(res.Makespan) / float64(res.OptLB)
		return res, nil
	}
	g := conflictgraph.RandomWindow(p.M, p.N, p.C, p.ColBias, r)
	return RunOnGraph(p, g, r)
}

// RunOnGraph simulates p's algorithm over an explicit conflict graph
// (node i·N+j = thread i's j-th transaction).
func RunOnGraph(p Params, g *conflictgraph.Graph, r *rng.Rand) (Result, error) {
	if g.Len() != p.M*p.N {
		return Result{}, fmt.Errorf("sim: graph has %d nodes, want %d", g.Len(), p.M*p.N)
	}
	ln := lnMN(p.M, p.N)
	realizedC := g.MaxDegree()

	frameLen := p.FrameLen
	if frameLen <= 0 {
		switch p.Algorithm {
		case Online:
			frameLen = int(math.Ceil(ln * ln))
		default:
			frameLen = int(math.Ceil(ln))
		}
	}

	// Per-thread contention measure C_i = max degree among the thread's
	// transactions, and random delays q_i ∈ [0, α_i−1].
	assigned := make([]int, p.M*p.N) // assigned frame per transaction
	for i := 0; i < p.M; i++ {
		ci := 1
		for j := 0; j < p.N; j++ {
			if d := g.Degree(i*p.N + j); d > ci {
				ci = d
			}
		}
		alphai := int(math.Round(float64(ci) / ln))
		if alphai < 1 {
			alphai = 1
		}
		if alphai > p.N {
			alphai = p.N
		}
		qi := 0
		if !p.ZeroDelay && p.Algorithm != OneShot {
			qi = r.Intn(alphai)
		}
		for j := 0; j < p.N; j++ {
			assigned[i*p.N+j] = qi + j
		}
	}

	next := make([]int, p.M) // next transaction index j per thread
	committed := 0
	prio := make([]uint64, p.M*p.N) // random priorities (Online/OneShot)
	for t := range prio {
		prio[t] = uint64(1 + r.Intn(p.M))
	}

	res := Result{C: realizedC}
	maxSteps := safetyCap(p, realizedC, frameLen)
	for step := 0; committed < p.M*p.N; step++ {
		if step > maxSteps {
			return res, fmt.Errorf("sim: %v exceeded safety cap of %d steps (%d/%d committed)",
				p.Algorithm, maxSteps, committed, p.M*p.N)
		}
		frame := 0
		if p.Algorithm != OneShot {
			frame = step / frameLen
		}

		// Gather pending transactions.
		var pend []int
		for i := 0; i < p.M; i++ {
			if next[i] < p.N {
				pend = append(pend, i*p.N+next[i])
			}
		}
		isPending := map[int]bool{}
		for _, t := range pend {
			isPending[t] = true
		}
		high := func(t int) bool {
			return p.Algorithm == OneShot || frame >= assigned[t]
		}

		var winners []int
		switch p.Algorithm {
		case Offline:
			winners = offlineStep(g, pend, isPending, high)
		default:
			winners = onlineStep(g, pend, isPending, high, prio)
		}

		// Commit winners; losers abort and (Online) redraw priorities.
		isWinner := map[int]bool{}
		for _, t := range winners {
			isWinner[t] = true
		}
		for _, t := range pend {
			if isWinner[t] {
				next[t/p.N]++
				committed++
			} else {
				res.Aborts++
				if p.Algorithm != Offline {
					prio[t] = uint64(1 + r.Intn(p.M))
				}
			}
		}
		res.Makespan = step + 1
	}

	cf := float64(realizedC)
	nf := float64(p.N)
	switch p.Algorithm {
	case Online:
		res.Bound = cf*ln + nf*ln*ln
	default:
		res.Bound = cf + nf*ln
	}
	return res, nil
}

// safetyCap bounds the simulation length far above any correct schedule so
// a scheduling bug fails fast instead of hanging.
func safetyCap(p Params, c, frameLen int) int {
	return 100 * (c + p.N*frameLen + p.M*p.N + 100)
}

// offlineStep selects the executing set with full knowledge of the
// conflict graph: a greedy maximal independent set over pending
// transactions, admitting high-priority transactions first (a high
// priority transaction may only lose to another high priority one).
func offlineStep(g *conflictgraph.Graph, pend []int, isPending map[int]bool, high func(int) bool) []int {
	var winners []int
	taken := map[int]bool{}
	conflictsChosen := func(t int) bool {
		for _, u := range g.Neighbors(t) {
			if taken[u] {
				return true
			}
		}
		return false
	}
	for pass := 0; pass < 2; pass++ {
		for _, t := range pend {
			if high(t) != (pass == 0) {
				continue
			}
			if !conflictsChosen(t) {
				taken[t] = true
				winners = append(winners, t)
			}
		}
	}
	return winners
}

// onlineStep selects the executing set without the conflict graph: a
// pending transaction proceeds iff it beats every pending conflicting
// transaction lexicographically on (π⁽¹⁾, π⁽²⁾, id) — the RandomizedRounds
// rule the Online algorithm uses inside frames.
func onlineStep(g *conflictgraph.Graph, pend []int, isPending map[int]bool, high func(int) bool, prio []uint64) []int {
	key := func(t int) [3]uint64 {
		p1 := uint64(1)
		if high(t) {
			p1 = 0
		}
		return [3]uint64{p1, prio[t], uint64(t)}
	}
	less := func(a, b [3]uint64) bool {
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	var winners []int
	for _, t := range pend {
		kt := key(t)
		wins := true
		for _, u := range g.Neighbors(t) {
			if isPending[u] && !less(kt, key(u)) {
				wins = false
				break
			}
		}
		if wins {
			winners = append(winners, t)
		}
	}
	return winners
}
