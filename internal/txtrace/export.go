package txtrace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file holds the trace's text views: the thread-by-time ASCII
// chart and the (attacker, enemy) conflict leaderboard that winbench -fig
// trace prints.

// Timeline renders the trace as an ASCII chart: one row per thread, one column per time bucket; each cell
// shows what dominated the bucket — commits (*), aborts (x), conflicts (~)
// or nothing (space). Frame events (thread -1) are skipped.
func (t *Trace) Timeline(w io.Writer, buckets int) error {
	var minAt, maxAt int64 = -1, 0
	maxThread := -1
	for _, e := range t.Events {
		if e.Thread < 0 {
			continue
		}
		if minAt < 0 || e.TS < minAt {
			minAt = e.TS
		}
		if e.TS > maxAt {
			maxAt = e.TS
		}
		if int(e.Thread) > maxThread {
			maxThread = int(e.Thread)
		}
	}
	if maxThread < 0 || buckets <= 0 {
		_, err := fmt.Fprintln(w, "(no events)")
		return err
	}
	span := maxAt - minAt + 1
	type cellCount struct{ commits, aborts, conflicts int }
	grid := make([][]cellCount, maxThread+1)
	for i := range grid {
		grid[i] = make([]cellCount, buckets)
	}
	for _, e := range t.Events {
		if e.Thread < 0 {
			continue
		}
		b := int((e.TS - minAt) * int64(buckets) / span)
		if b >= buckets {
			b = buckets - 1
		}
		cell := &grid[e.Thread][b]
		switch e.Kind {
		case EvCommit:
			cell.commits++
		case EvAbort:
			cell.aborts++
		case EvConflict:
			cell.conflicts++
		}
	}
	for th := range grid {
		var sb strings.Builder
		fmt.Fprintf(&sb, "T%02d |", th)
		for _, cell := range grid[th] {
			switch {
			case cell.aborts > cell.commits:
				sb.WriteByte('x')
			case cell.commits > 0:
				sb.WriteByte('*')
			case cell.conflicts > 0:
				sb.WriteByte('~')
			default:
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('|')
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// PairCount is one (attacker, enemy) conflict tally.
type PairCount struct {
	Attacker, Enemy, Conflicts int
}

// AbortsByPair aggregates the trace's conflict events by
// (attacker, enemy) thread pair, most frequent first (ties broken by
// ascending attacker, then enemy) — a quick view of who fights whom. Unlike
// ConflictSnapshot's edges this is directed: T3 killing T5 and T5 killing
// T3 are different rows.
func (t *Trace) AbortsByPair() []PairCount {
	counts := map[[2]int]int{}
	for _, e := range t.Events {
		if e.Kind == EvConflict {
			counts[[2]int{int(e.Thread), int(e.Enemy)}]++
		}
	}
	out := make([]PairCount, 0, len(counts))
	for pair, n := range counts {
		out = append(out, PairCount{Attacker: pair[0], Enemy: pair[1], Conflicts: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Conflicts != out[j].Conflicts {
			return out[i].Conflicts > out[j].Conflicts
		}
		if out[i].Attacker != out[j].Attacker {
			return out[i].Attacker < out[j].Attacker
		}
		return out[i].Enemy < out[j].Enemy
	})
	return out
}
