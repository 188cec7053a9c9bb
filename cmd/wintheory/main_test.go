package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseArgs: a command line that would print an all-zero or
// resource-free table, or carries a stray argument, is rejected with a
// message naming the flag; a valid one comes back as the config it spells,
// sweeping -c or, under -ratio, -s.
func TestParseArgs(t *testing.T) {
	for _, c := range []struct {
		args string
		want string // substring of the error, or for an accepted line the config it parses to
		ok   bool
	}{
		{"-reps 0", "-reps", false},
		{"-ratio -reps 0", "-reps", false},
		{"-ratio -s 0", "-s", false},
		{"-ratio -s 2,x", "-s", false},
		{"-c 2,-1", "-c", false},
		{"x", "unexpected arguments: [x]", false},
		{"-m 8 -n 4 -reps 1 -c 2,8", "{m:8 n:4 reps:1 colBias:0.7 seed:1 ratio:false sweep:[2 8]}", true},
		{"-c 0", "sweep:[0]", true},
		{"-ratio -s 2,8 -c -1", "ratio:true sweep:[2 8]", true},
	} {
		cfg, err := parseArgs(strings.Fields(c.args))
		switch {
		case c.ok && err != nil:
			t.Errorf("%q: rejected: %v", c.args, err)
		case c.ok && !strings.Contains(fmt.Sprintf("%+v", cfg), c.want):
			t.Errorf("%q: parsed as %+v, want %s", c.args, cfg, c.want)
		case !c.ok && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%q: err = %v, want one containing %q", c.args, err, c.want)
		}
	}
}
