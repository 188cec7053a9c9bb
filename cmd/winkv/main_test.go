package main

import (
	"strings"
	"testing"

	"wincm/internal/kv"
)

// TestValidateServe is the flag-parse fail-fast table: positional
// arguments, an empty address, and every invalid store option must be
// rejected before a socket is opened, with messages naming the input.
func TestValidateServe(t *testing.T) {
	// validateServe sees what the flags hold, so every row spells out
	// -shards and -threads (4 and 2 when not given).
	cases := []struct {
		name    string
		addr    string
		args    []string
		o       kv.Options
		wantErr string // substring; empty = accept
	}{
		{"defaults", "127.0.0.1:0", nil, kv.Options{Shards: 4, ShardThreads: 2}, ""},
		{"window manager", "127.0.0.1:0", nil, kv.Options{Shards: 4, ShardThreads: 2, Manager: "adaptive"}, ""},
		{"classic manager", "127.0.0.1:0", nil, kv.Options{Shards: 4, ShardThreads: 2, Manager: "timestamp"}, ""},
		{"positional args", "127.0.0.1:0", []string{"junk"}, kv.Options{Shards: 4, ShardThreads: 2}, "unexpected arguments"},
		{"empty addr", "", nil, kv.Options{Shards: 4, ShardThreads: 2}, "-addr"},
		{"bad shards", "127.0.0.1:0", nil, kv.Options{Shards: -4, ShardThreads: 2}, "Shards"},
		{"bad threads", "127.0.0.1:0", nil, kv.Options{Shards: 4, ShardThreads: -1}, "ShardThreads"},
		{"zero shards", "127.0.0.1:0", nil, kv.Options{Shards: 0, ShardThreads: 2}, "-shards"},
		{"zero threads", "127.0.0.1:0", nil, kv.Options{Shards: 4, ShardThreads: 0}, "-threads"},
		{"threads past the STM's bound", "127.0.0.1:0", nil, kv.Options{Shards: 4, ShardThreads: 256}, "-threads"},
		{"unknown manager", "127.0.0.1:0", nil, kv.Options{Shards: 4, ShardThreads: 2, Manager: "bogus"}, "bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateServe(tc.addr, tc.args, tc.o)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateServe = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("validateServe = nil, want error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}
