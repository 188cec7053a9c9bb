package txtrace

import (
	"sort"
	"time"

	"wincm/internal/conflictgraph"
)

// Trace is a finished run's recording, read once after the run
// (Recorder.Read). The views — Conflicts, Heatmap, Counts, Timeline and
// WriteChromeTrace — are its methods and share its one sorted event list.
type Trace struct {
	// Events is every recorded event in global time order. The sort is
	// stable, so same-timestamp events keep their thread's record order.
	Events []Event
	// Threads is how many threads the recorder served; Sample is its
	// 1-in-N sampling divisor.
	Threads, Sample int
	// Unrecorded counts the sampled transactions left out, each whole,
	// because Budget was spent.
	Unrecorded uint64
	// FramesUnrecorded counts the frame advances left out because Budget
	// was spent.
	FramesUnrecorded uint64
}

// ConflictEdge is one directed thread pair's conflict tally.
type ConflictEdge struct {
	// From is the attacker, the thread whose open met the conflict; To
	// is its enemy.
	From, To int
	// Count is how many conflict events the pair generated; Aborts counts
	// those whose verdict killed a party (AbortEnemy or AbortSelf).
	Count, Aborts int
}

// ConflictSnapshot is the thread-level conflict graph of a trace.
type ConflictSnapshot struct {
	// Threads is the node count of Graph.
	Threads int
	// Edges lists the distinct (attacker, enemy) pairs, most conflicts
	// first, ties by ascending attacker, then enemy: T3 meeting T5 and T5
	// meeting T3 are two edges.
	Edges []ConflictEdge
	// Graph is the simple undirected graph over the pairs — the same shape
	// the paper's window model colors, so MaxDegree is the empirical
	// contention measure C and GreedyColor a feasible schedule depth.
	Graph *conflictgraph.Graph
	// Conflicts and Aborts are the event totals across all edges: every
	// recorded conflict event, and the subset with an aborting
	// verdict. Σ Edges[i].Aborts == Aborts by construction.
	Conflicts, Aborts int
	// MaxDegree and Colors summarize Graph (greedy coloring depth).
	MaxDegree, Colors int
}

// Conflicts builds the thread conflict graph of the trace. Threads
// outside any conflict appear as isolated nodes.
func (t *Trace) Conflicts() ConflictSnapshot {
	snap := ConflictSnapshot{Threads: t.Threads}
	pairs := map[[2]int]*ConflictEdge{}
	for _, e := range t.Events {
		if e.Kind != EvConflict {
			continue
		}
		key := [2]int{int(e.Thread), int(e.Enemy)}
		p := pairs[key]
		if p == nil {
			p = &ConflictEdge{From: key[0], To: key[1]}
			pairs[key] = p
		}
		p.Count++
		snap.Conflicts++
		if e.Aborting() {
			p.Aborts++
			snap.Aborts++
		}
		snap.Threads = max(snap.Threads, key[0]+1, key[1]+1)
	}
	for _, p := range pairs {
		snap.Edges = append(snap.Edges, *p)
	}
	sort.Slice(snap.Edges, func(i, j int) bool {
		a, b := snap.Edges[i], snap.Edges[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	g := conflictgraph.New(snap.Threads)
	for _, p := range snap.Edges {
		_ = g.AddEdge(p.From, p.To) // refuses a pair's reverse and self-loops, so g stays simple
	}
	snap.Graph = g
	snap.MaxDegree = g.MaxDegree()
	snap.Colors = conflictgraph.NumColors(g.GreedyColor())
	return snap
}

// VarStat is one variable's contention tally.
type VarStat struct {
	// Var is the variable's opaque token (stm.(*Tx).OpenedVar).
	Var uint64
	// Opens counts sampled opens of the variable; Conflicts counts
	// conflicts discovered over it; Aborts the subset with an aborting
	// verdict; Waits the time spent waiting on it.
	Opens, Conflicts, Aborts int
	Waits                    time.Duration
}

// Heatmap returns the top-k contended variables, hottest first (by abort
// attribution, then conflicts, then opens). k <= 0 returns all.
func (t *Trace) Heatmap(k int) []VarStat {
	stats := map[uint64]*VarStat{}
	get := func(v uint64) *VarStat {
		s := stats[v]
		if s == nil {
			s = &VarStat{Var: v}
			stats[v] = s
		}
		return s
	}
	for _, e := range t.Events {
		switch e.Kind {
		case EvOpen, EvAcquire:
			if e.A != 0 {
				get(e.A).Opens++
			}
		case EvConflict:
			if e.B != 0 {
				s := get(e.B)
				s.Conflicts++
				if e.Aborting() {
					s.Aborts++
				}
			}
		case EvWait:
			if e.B != 0 {
				get(e.B).Waits += time.Duration(e.A)
			}
		}
	}
	out := make([]VarStat, 0, len(stats))
	for _, s := range stats {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Aborts != b.Aborts {
			return a.Aborts > b.Aborts
		}
		if a.Conflicts != b.Conflicts {
			return a.Conflicts > b.Conflicts
		}
		if a.Opens != b.Opens {
			return a.Opens > b.Opens
		}
		return a.Var < b.Var
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Counts tallies recorded events per kind. The runtime reports one
// outcome per attempt, so the EvCommit and EvAbort tallies are the
// recorded attempts' outcomes.
func (t *Trace) Counts() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range t.Events {
		out[e.Kind]++
	}
	return out
}
