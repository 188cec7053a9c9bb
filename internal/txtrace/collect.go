package txtrace

import (
	"sort"
	"sync"
	"time"

	"wincm/internal/conflictgraph"
)

// DefaultKeep is how many drained events a Collector retains by default —
// the sliding analysis window. At a sampled contended run's event rate
// this is seconds of history; the oldest events are evicted first and
// counted, so a long run keeps the most recent window.
const DefaultKeep = 1 << 20

// Collector is the cold side of the flight recorder: it drains the
// recorder's rings into one bounded, time-ordered window and derives the
// analysis views. All methods are safe for concurrent use; the mutex also
// serializes drains, preserving the rings' single-consumer contract.
type Collector struct {
	rec  *Recorder
	keep int

	mu      sync.Mutex
	events  []Event // retained window, drain order (per-ring ascending TS)
	evicted uint64  // events dropped from the window's old end
}

// NewCollector returns a collector over rec retaining at most keep drained
// events (keep <= 0 selects DefaultKeep).
func NewCollector(rec *Recorder, keep int) *Collector {
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Collector{rec: rec, keep: keep}
}

// Recorder returns the recorder this collector drains.
func (c *Collector) Recorder() *Recorder { return c.rec }

// Poll drains every ring into the retained window and reports how many
// events arrived. Call it periodically during a run (the harness's sampler
// cadence is plenty) and once after the workload quiesces.
func (c *Collector) Poll() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pollLocked()
}

func (c *Collector) pollLocked() int {
	before := len(c.events)
	c.events = c.rec.drainInto(c.events)
	fresh := len(c.events) - before
	if over := len(c.events) - c.keep; over > 0 {
		// Evict oldest. The window is kept in drain order; per-ring order
		// is ascending TS, and Events restores global order on export.
		c.evicted += uint64(over)
		c.events = append(c.events[:0], c.events[over:]...)
	}
	return fresh
}

// Dropped reports the total events lost anywhere: rejected at a full ring
// on the hot side plus evicted from the retained window's old end.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec.Dropped() + c.evicted
}

// Events drains and returns a copy of the retained window in global time
// order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	c.pollLocked()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	c.mu.Unlock()
	// Stable, so same-timestamp events keep drain order, which within a
	// thread is causal order.
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// ConflictEdge is one undirected thread pair's conflict tally.
type ConflictEdge struct {
	// From < To are the two thread IDs.
	From, To int
	// Count is how many conflict events the pair generated; Aborts counts
	// those whose verdict killed a party (AbortEnemy or AbortSelf).
	Count, Aborts int
}

// ConflictSnapshot is the thread-level conflict graph over a time window.
type ConflictSnapshot struct {
	// Window is the analysis span (0 = everything retained).
	Window time.Duration
	// Threads is the node count of Graph.
	Threads int
	// Edges lists the distinct conflicting pairs, heaviest first.
	Edges []ConflictEdge
	// Graph is the simple undirected graph over the pairs — the same shape
	// the paper's window model colors, so MaxDegree is the empirical
	// contention measure C and GreedyColor a feasible schedule depth.
	Graph *conflictgraph.Graph
	// Conflicts and Aborts are the event totals across all edges: every
	// conflict event in the window, and the subset with an aborting
	// verdict. Σ Edges[i].Aborts == Aborts by construction.
	Conflicts, Aborts int
	// MaxDegree and Colors summarize Graph (greedy coloring depth).
	MaxDegree, Colors int
}

// Conflicts builds the thread conflict graph from the retained window,
// restricted to the trailing window span (0 = all). Threads outside any
// conflict appear as isolated nodes.
func (c *Collector) Conflicts(window time.Duration) ConflictSnapshot {
	evs := c.Events()
	snap := ConflictSnapshot{Window: window, Threads: len(c.rec.threads)}
	var cutoff int64
	if window > 0 && len(evs) > 0 {
		cutoff = evs[len(evs)-1].TS - int64(window)
	}
	type tally struct{ count, aborts int }
	pairs := map[[2]int]*tally{}
	for _, e := range evs {
		if e.Kind != EvConflict || e.TS < cutoff {
			continue
		}
		a, b := int(e.Thread), int(e.Enemy)
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		t := pairs[key]
		if t == nil {
			t = &tally{}
			pairs[key] = t
		}
		t.count++
		snap.Conflicts++
		if e.Aborting() {
			t.aborts++
			snap.Aborts++
		}
		if n := b + 1; n > snap.Threads {
			snap.Threads = n
		}
	}
	g := conflictgraph.New(snap.Threads)
	for key, t := range pairs {
		snap.Edges = append(snap.Edges, ConflictEdge{From: key[0], To: key[1], Count: t.count, Aborts: t.aborts})
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
func (c *Collector) Heatmap(k int) []VarStat {
	evs := c.Events()
	stats := map[uint64]*VarStat{}
	get := func(v uint64) *VarStat {
		s := stats[v]
		if s == nil {
			s = &VarStat{Var: v}
			stats[v] = s
		}
		return s
	}
	for _, e := range evs {
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

// Counts tallies retained events per kind.
func (c *Collector) Counts() map[Kind]int {
	out := map[Kind]int{}
	for _, e := range c.Events() {
		out[e.Kind]++
	}
	return out
}
