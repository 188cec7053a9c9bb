package txtrace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// This file holds the text exporters shared with package trace (which
// reimplements its historical API on these helpers): the repository's
// established CSV format, the thread-by-time ASCII chart, and the
// (attacker, enemy) conflict leaderboard. All take a plain []Event so
// both the Collector and the trace wrapper's cold buffer can feed them.

// WriteCSV writes events in the repository's trace CSV format:
//
//	at_ns,thread,seq,attempt,kind,enemy,decision
//
// The header and the begin/commit/abort/conflict rows are byte-compatible
// with the pre-recorder format; the recorder's additional kinds (open,
// acquire, wait, frame) append under the same
// columns, with enemy -1 where no enemy exists. The decision column is
// filled only for conflict rows, as before.
func WriteCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "at_ns,thread,seq,attempt,kind,enemy,decision"); err != nil {
		return err
	}
	for _, e := range events {
		dec := ""
		if d, ok := e.Decision(); ok && e.Kind == EvConflict {
			dec = d.String()
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%s\n",
			e.TS, e.Thread, e.Seq, e.Attempt, e.Kind, e.Enemy, dec); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV drains the collector and exports the retained window as CSV.
func (c *Collector) WriteCSV(w io.Writer) error { return WriteCSV(w, c.Events()) }

// Timeline renders an ASCII chart: one row per thread, one column per
// time bucket; each cell shows what dominated the bucket — commits (*),
// aborts (x), conflicts (~) or nothing (space). Frame events (thread -1)
// are skipped.
func Timeline(w io.Writer, events []Event, buckets int) error {
	var minAt, maxAt int64 = -1, 0
	maxThread := -1
	for _, e := range events {
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
	for _, e := range events {
		if e.Thread < 0 {
			continue
		}
		b := int((e.TS - minAt) * int64(buckets) / span)
		if b >= buckets {
			b = buckets - 1
		}
		c := &grid[e.Thread][b]
		switch e.Kind {
		case EvCommit:
			c.commits++
		case EvAbort:
			c.aborts++
		case EvConflict:
			c.conflicts++
		}
	}
	for th := range grid {
		var sb strings.Builder
		fmt.Fprintf(&sb, "T%02d |", th)
		for _, c := range grid[th] {
			switch {
			case c.aborts > c.commits:
				sb.WriteByte('x')
			case c.commits > 0:
				sb.WriteByte('*')
			case c.conflicts > 0:
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

// Timeline drains the collector and renders the retained window.
func (c *Collector) Timeline(w io.Writer, buckets int) error {
	return Timeline(w, c.Events(), buckets)
}

// PairCount is one (attacker, enemy) conflict tally.
type PairCount struct {
	Attacker, Enemy, Conflicts int
}

// PairCounts aggregates conflict events by (attacker, enemy) thread pair,
// most frequent first (ties broken by ascending attacker, then enemy) — a
// quick view of who fights whom. Unlike ConflictSnapshot's edges this is
// directed: T3 killing T5 and T5 killing T3 are different rows.
func PairCounts(events []Event) []PairCount {
	counts := map[[2]int]int{}
	for _, e := range events {
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

// AbortsByPair drains the collector and aggregates its conflicts by
// directed thread pair.
func (c *Collector) AbortsByPair() []PairCount { return PairCounts(c.Events()) }
