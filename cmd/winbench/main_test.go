package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// TestParseArgsFailsFast: a value winbench would have replaced with a
// default, a stray argument and a removed flag or figure are each rejected
// before any cell runs, with a message naming the flag; a valid command line
// comes back as the options it spells.
func TestParseArgsFailsFast(t *testing.T) {
	for _, c := range []struct {
		args string
		want string // substring of the error; "" = accepted
	}{
		{"-reps 0", "-reps"},
		{"-dur -1s", "-dur"},
		{"-fig 5 -total 0", "-total"},
		{"-window-n 10", "flag provided but not defined: -window-n"},
		{"-fig 3 -bench list -threads 2 extra", "unexpected arguments: [extra]"},
		{"-bench nosuch", "nosuch"},
		{"-bench hashset", "hashset"},
		{"-bench kmeans", "kmeans"},
		{"-fig telemetry -manager nosuch", "-manager"},
		{"-fig trace -manager nosuch -trace-out t.json", "-manager"},
		{"-fig5-threads 4", "flag provided but not defined: -fig5-threads"},
		{"-fig btree -btree-threads 2,4", "flag provided but not defined: -btree-threads"},
		{"-fig telemetry -telemetry-manager polka", "flag provided but not defined: -telemetry-manager"},
		{"-fig trace -trace-manager polka", "flag provided but not defined: -trace-manager"},
		{"-fig telemetry -telemetry-interval 250ms", "flag provided but not defined: -telemetry-interval"},
		{"-fig telemetry -telemetry-jsonl x", "flag provided but not defined: -telemetry-jsonl"},
		{"-fig telemetry -telemetry-csv x", "flag provided but not defined: -telemetry-csv"},
		{"-threads 2,0", "-threads"},
		{"-threads 8,256", "-threads"},
		{"-chaos", "flag provided but not defined: -chaos"},
		{"-stall-prob 0.5", "flag provided but not defined: -stall-prob"},
		{"-fig chaos", `unknown figure "chaos"`},
		{"-durable", "-durable"},
		{"-fig durable", `unknown figure "durable"`},
		{"-backend lazy", "-backend"},
		{"-trace", "flag provided but not defined: -trace"},
		{"-fig 4 -trace-sample 16", "-fig trace"},
		{"-fig 3 -trace-out t.json", "-fig trace"},
		{"-fig 3 -bench list,vacation -threads 2,4 -dur 50ms -reps 1", ""},
	} {
		inv, err := parseArgs(strings.Fields(c.args), io.Discard)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q: rejected: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%q: err = %v, want one containing %q", c.args, err, c.want)
		case c.want == "":
			o := inv.opts
			if inv.fig != "3" || o.Reps != 1 || o.Duration != 50*time.Millisecond ||
				strings.Join(o.Benchmarks, ",") != "list,vacation" || len(o.Threads) != 2 || o.Threads[1] != 4 {
				t.Errorf("%q parsed as fig %q, %+v", c.args, inv.fig, o)
			}
		}
	}
}

// TestFigureNamesCoverTheDriverTable: the -fig help text and the
// unknown-figure error are one string, derived from the driver table, so it
// names every table driver plus the one value main handles itself.
func TestFigureNamesCoverTheDriverTable(t *testing.T) {
	got := strings.Split(strings.Replace(figureNames(), " or ", ", ", 1), ", ")
	want := []string{"2", "3", "4", "5", "ext", "all", "telemetry", "btree", "trace"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("figureNames() lists %q, want %q", got, want)
	}
	seen := map[string]bool{"trace": true}
	for _, f := range figures {
		if f.driver == nil || seen[f.name] {
			t.Errorf("figure %q: nil driver or duplicate name", f.name)
		}
		seen[f.name] = true
	}
}

// TestFlagConflict: a flag that configures a figure -fig did not select is
// rejected before anything runs; a flag the selected figure honours is not.
func TestFlagConflict(t *testing.T) {
	flags := func(names ...string) map[string]bool {
		set := map[string]bool{}
		for _, n := range names {
			set[n] = true
		}
		return set
	}
	for _, c := range []struct {
		name string
		set  map[string]bool
		fig  string
		want string // substring of the error; "" = accepted
	}{
		{"defaults", flags(), "all", ""},
		{"-manager under a table figure", flags("fig", "manager"), "2", "-manager has no effect without -fig telemetry or -fig trace"},
		{"-manager with -fig telemetry", flags("fig", "manager"), "telemetry", ""},
		{"-manager with -fig trace", flags("fig", "manager"), "trace", ""},
		{"-trace-sample and -trace-out with -fig trace", flags("fig", "trace-sample", "trace-out"), "trace", ""},
		{"-trace-sample under a table figure", flags("fig", "trace-sample"), "4", "-trace-sample has no effect without -fig trace"},
		{"-trace-out under -fig telemetry", flags("fig", "trace-out"), "telemetry", "-trace-out has no effect without -fig trace"},
		{"btree pins its benchmarks", flags("fig", "bench"), "btree", "-bench has no effect with -fig btree"},
		{"btree sweeps -threads", flags("fig", "threads"), "btree", ""},
		// Figure 5 runs at the largest -threads entry.
		{"-fig 5 -threads", flags("fig", "threads"), "5", ""},
		// ext averages over -reps (harness: TestExtendedAveragesOverReps).
		{"-fig ext -reps", flags("fig", "reps"), "ext", ""},
		{"-fig all -threads", flags("fig", "threads"), "all", ""},
	} {
		err := flagConflict(c.set, c.fig)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}
