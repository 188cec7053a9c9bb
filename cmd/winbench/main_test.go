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
