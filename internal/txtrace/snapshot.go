package txtrace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Snapshot is the collector's human-oriented JSON summary: what the
// /trace/snapshot endpoint serves and what -fig trace prints from. It
// aggregates the retained window; the raw events stay binary and are
// exported separately (Chrome trace).
type Snapshot struct {
	// Events tallies retained events per kind name.
	Events map[string]int `json:"events"`
	// Verdicts tallies conflict events per contention-manager decision.
	Verdicts map[string]int `json:"verdicts"`
	// Dropped is the total event loss (full rings + window eviction).
	Dropped uint64 `json:"dropped"`
	// Sample is the recorder's 1-in-N sampling divisor.
	Sample int `json:"sample"`
	// Conflicts summarizes the thread conflict graph over the whole
	// retained window.
	Conflicts ConflictSummary `json:"conflicts"`
	// Heatmap lists the hottest variables by abort attribution.
	Heatmap []VarSummary `json:"heatmap"`
}

// ConflictSummary is the JSON shape of a ConflictSnapshot (the Graph
// itself is summarized, not serialized).
type ConflictSummary struct {
	Threads   int            `json:"threads"`
	Conflicts int            `json:"conflicts"`
	Aborts    int            `json:"aborts"`
	MaxDegree int            `json:"max_degree"`
	Colors    int            `json:"greedy_colors"`
	Edges     []ConflictEdge `json:"edges"`
}

// VarSummary is the JSON shape of a VarStat; the token prints as hex so
// it reads as the identity it is, not as a quantity.
type VarSummary struct {
	Var       string `json:"var"`
	Opens     int    `json:"opens"`
	Conflicts int    `json:"conflicts"`
	Aborts    int    `json:"aborts"`
	WaitNs    int64  `json:"wait_ns"`
}

// snapshotHeatTopK bounds the snapshot's heatmap size; the full map is
// available programmatically via Heatmap.
const snapshotHeatTopK = 16

// Snapshot drains and summarizes the retained window.
func (c *Collector) Snapshot() Snapshot {
	snap := Snapshot{
		Events:   map[string]int{},
		Verdicts: map[string]int{},
		Dropped:  c.Dropped(),
		Sample:   c.rec.Sample(),
	}
	for k, n := range c.Counts() {
		snap.Events[k.String()] = n
	}
	for d, n := range c.Verdicts() {
		snap.Verdicts[d.String()] = n
	}
	cs := c.Conflicts(0)
	snap.Conflicts = ConflictSummary{
		Threads:   cs.Threads,
		Conflicts: cs.Conflicts,
		Aborts:    cs.Aborts,
		MaxDegree: cs.MaxDegree,
		Colors:    cs.Colors,
		Edges:     cs.Edges,
	}
	if snap.Conflicts.Edges == nil {
		snap.Conflicts.Edges = []ConflictEdge{}
	}
	snap.Heatmap = []VarSummary{}
	for _, v := range c.Heatmap(snapshotHeatTopK) {
		snap.Heatmap = append(snap.Heatmap, VarSummary{
			Var:   fmt.Sprintf("0x%x", v.Var),
			Opens: v.Opens, Conflicts: v.Conflicts, Aborts: v.Aborts,
			WaitNs: int64(v.Waits),
		})
	}
	return snap
}

// WriteSnapshot writes the summary as indented JSON. Together with
// WriteChromeTrace this satisfies telemetry.TraceSource, so a Collector
// plugs straight into a Hub's /trace endpoints.
func (c *Collector) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}
