package main

import (
	"strings"
	"testing"

	"wincm/internal/stm"
)

// TestValidateBackend covers the fail-fast engine selection: every
// registered backend is accepted, unknown names are rejected with a
// message that names the input.
func TestValidateBackend(t *testing.T) {
	for _, name := range append([]string{""}, stm.Backends()...) {
		if err := validateBackend(name); err != nil {
			t.Errorf("validateBackend(%q) = %v, want nil", name, err)
		}
	}
	err := validateBackend("htm")
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	if !strings.Contains(err.Error(), "htm") {
		t.Errorf("unknown-backend error does not name the input: %v", err)
	}
}

// TestFigureNamesCoverTheDriverTable: the -fig help text and the
// unknown-figure error are one string, derived from the driver table, so it
// names every table driver plus the two values main handles itself.
func TestFigureNamesCoverTheDriverTable(t *testing.T) {
	got := strings.Split(strings.Replace(figureNames(), " or ", ", ", 1), ", ")
	want := []string{"2", "3", "4", "5", "ext", "chaos", "telemetry", "durable", "btree", "trace", "all"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("figureNames() lists %q, want %q", got, want)
	}
	seen := map[string]bool{"trace": true, "all": true}
	for _, f := range figures {
		if f.driver == nil || seen[f.name] {
			t.Errorf("figure %q: nil driver or duplicate name", f.name)
		}
		seen[f.name] = true
	}
	if figures[figuresInAll-1].name != "ext" {
		t.Errorf("-fig all ends at %q, want the paper's figures and ext", figures[figuresInAll-1].name)
	}
}
