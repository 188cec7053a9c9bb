package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"wincm/internal/kv"
)

// valid returns a loadConfig that passes validation; tests mutate one
// field at a time.
func valid() loadConfig {
	return loadConfig{
		sessions: 4,
		keys:     1000,
		theta:    0.9,
		dur:      time.Second,
		depth:    1,
		weights:  [numClasses]float64{0.7, 0.2, 0.04, 0.04, 0.02},
		mkeys:    4,
		span:     16,
	}
}

// TestLoadConfigValidate is the fail-fast table for the load generator's
// flags: every value that would silently misbehave is an error that
// names the flag.
func TestLoadConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*loadConfig)
		wantErr string // substring; empty = accept
	}{
		{"valid", func(c *loadConfig) {}, ""},
		{"uniform theta 0", func(c *loadConfig) { c.theta = 0 }, ""},
		{"single-op mix", func(c *loadConfig) {
			c.weights = [numClasses]float64{1, 0, 0, 0, 0}
			c.mkeys = 1 // fine: no multi-key ops in the mix
		}, ""},
		{"zero sessions", func(c *loadConfig) { c.sessions = 0 }, "-sessions"},
		{"zero keys", func(c *loadConfig) { c.keys = 0 }, "-keys"},
		{"theta 1", func(c *loadConfig) { c.theta = 1 }, "-theta"},
		{"theta negative", func(c *loadConfig) { c.theta = -0.1 }, "-theta"},
		{"theta NaN", func(c *loadConfig) { c.theta = math.NaN() }, "-theta"},
		{"zero duration", func(c *loadConfig) { c.dur = 0 }, "-dur"},
		{"zero depth", func(c *loadConfig) { c.depth = 0 }, "-depth"},
		{"negative weight", func(c *loadConfig) { c.weights[clSet] = -0.5 }, "-set"},
		{"NaN weight", func(c *loadConfig) { c.weights[clMGet] = math.NaN() }, "-mget"},
		{"infinite weight", func(c *loadConfig) { c.weights[clGet] = math.Inf(1) }, "-get"},
		{"negative infinite weight", func(c *loadConfig) { c.weights[clScan] = math.Inf(-1) }, "-scan"},
		{"all-zero mix", func(c *loadConfig) { c.weights = [numClasses]float64{} }, "mix"},
		{"mkeys zero", func(c *loadConfig) { c.mkeys = 0 }, "-mkeys"},
		{"mkeys over cap", func(c *loadConfig) { c.mkeys = kv.MaxMultiKeys + 1 }, "-mkeys"},
		{"mkeys 1 with multi ops", func(c *loadConfig) { c.mkeys = 1 }, "-mkeys"},
		{"span zero", func(c *loadConfig) { c.span = 0 }, "-span"},
		{"span over cap", func(c *loadConfig) { c.span = kv.MaxScanSpan + 1 }, "-span"},
		{"preload over keys", func(c *loadConfig) { c.preload = c.keys + 1 }, "-preload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid()
			tc.mutate(&c)
			err := c.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("validate = nil, want error")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}

// TestMixThresholds: cumulative thresholds normalize any weight sum and
// end exactly at 1.
func TestMixThresholds(t *testing.T) {
	c := valid()
	c.weights = [numClasses]float64{3, 1, 0, 0, 0}
	cum := c.mixThresholds()
	if math.Abs(cum[clGet]-0.75) > 1e-12 {
		t.Fatalf("cum[get] = %v", cum[clGet])
	}
	for i := clSet; i < numClasses; i++ {
		if math.Abs(cum[i]-1) > 1e-12 {
			t.Fatalf("cum[%s] = %v, want 1", classNames[i], cum[i])
		}
	}
}
