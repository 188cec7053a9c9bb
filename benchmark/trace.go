package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. A sampled batch (or transaction) is one root span with the
// phases it went through as children.
const (
	spBatch = iota
	spGen
	spFlush
	spWait
	spTx
)

var spanNames = [...]string{"batch", "gen", "flush", "wait", "tx"}

// span is one timed interval: times in ns since the run's epoch, parent an
// index into the same spanLog (-1 for a root), batch the identifier every
// span of one request shares.
type span struct {
	name       uint8
	parent     int32
	start, end int64
	batch      int64
}

// sampleEvery is the span sampling stride: one batch in 64 records spans.
// Counts and phase totals are kept for every batch.
const sampleEvery = 64

// spanLog is one goroutine's preallocated span buffer. When it is full,
// further spans are not kept.
type spanLog struct {
	tid   int
	spans []span
}

func newSpanLog(tid, capacity int) *spanLog {
	return &spanLog{tid: tid, spans: make([]span, 0, capacity)}
}

// add appends a span and returns its index, or -1 when the buffer is full.
func (l *spanLog) add(name uint8, parent int32, start, end, batch int64) int32 {
	if len(l.spans) == cap(l.spans) {
		return -1
	}
	l.spans = append(l.spans, span{name: name, parent: parent, start: start, end: end, batch: batch})
	return int32(len(l.spans) - 1)
}

// epoch anchors span times; time.Since reads the monotonic clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// writeChromeTrace writes the logs as Chrome trace-event JSON, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly. Each
// goroutine is one track; children nest under their batch by time.
func writeChromeTrace(path string, logs []*spanLog) (spans int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, l := range logs {
		for i, s := range l.spans {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"batch":%d}}`,
				spanNames[s.name], l.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.batch)
			spans++
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return spans, err
	}
	return spans, f.Close()
}
