package txtrace

import (
	"sort"
	"time"

	"wincm/internal/conflictgraph"
)

// Trace is a finished run's recording, read once after the run
// (Recorder.Read). The views — Conflicts, Heatmap, Counts, Timeline,
// AbortsByPair and WriteChromeTrace — are its methods and share its one
// sorted event list.
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

// ConflictEdge is one undirected thread pair's conflict tally.
type ConflictEdge struct {
	// From < To are the two thread IDs.
	From, To int
	// Count is how many conflict events the pair generated; Aborts counts
	// those whose verdict killed a party (AbortEnemy or AbortSelf).
	Count, Aborts int
}

// ConflictSnapshot is the thread-level conflict graph of a trace.
type ConflictSnapshot struct {
	// Threads is the node count of Graph.
	Threads int
	// Edges lists the distinct conflicting pairs, heaviest first.
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
	type tally struct{ count, aborts int }
	pairs := map[[2]int]*tally{}
	for _, e := range t.Events {
		if e.Kind != EvConflict {
			continue
		}
		a, b := int(e.Thread), int(e.Enemy)
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		p := pairs[key]
		if p == nil {
			p = &tally{}
			pairs[key] = p
		}
		p.count++
		snap.Conflicts++
		if e.Aborting() {
			p.aborts++
			snap.Aborts++
		}
		if n := b + 1; n > snap.Threads {
			snap.Threads = n
		}
	}
	g := conflictgraph.New(snap.Threads)
	for key, p := range pairs {
		snap.Edges = append(snap.Edges, ConflictEdge{From: key[0], To: key[1], Count: p.count, Aborts: p.aborts})
		if key[0] != key[1] {
			_ = g.AddEdge(key[0], key[1]) // dup/self-loop impossible: keys are distinct sorted pairs
		}
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

// Counts tallies recorded events per kind, counting each attempt's
// outcome once: an attempt whose commit entry loses its status CAS to a
// remote abort records EvCommit and then EvAbort, and counts as the abort
// only. A thread ends its attempts one after another, so the outcome events
// of one attempt are consecutive among its thread's outcome events.
func (t *Trace) Counts() map[Kind]int {
	type outcome struct {
		seq, attempt int32
		kind         Kind
	}
	out := map[Kind]int{}
	last := map[int16]outcome{} // each thread's latest outcome, not yet counted
	for _, e := range t.Events {
		if e.Kind != EvCommit && e.Kind != EvAbort {
			out[e.Kind]++
			continue
		}
		if p, ok := last[e.Thread]; ok && (p.seq != e.Seq || p.attempt != e.Attempt) {
			out[p.kind]++
		}
		last[e.Thread] = outcome{e.Seq, e.Attempt, e.Kind}
	}
	for _, p := range last {
		out[p.kind]++
	}
	return out
}
