package txtrace

import (
	"fmt"
	"io"
	"strings"
)

// This file holds the trace's text view, the thread-by-time ASCII chart
// that winbench -fig trace prints. It counts outcome events as recorded:
// the runtime reports one outcome per attempt.

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
