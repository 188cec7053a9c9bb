package main

import (
	"fmt"
	"runtime"
	"time"
)

// Command classes of the kv workloads, in the order the mix weights,
// per-class counters and budget table use.
const (
	clGet = iota
	clSet
	clMGet
	clMSet
	clScan
	numClasses
)

var classNames = [numClasses]string{"get", "set", "mget", "mset", "scan"}

// spec is one workload: what is built, what is preloaded and what the
// clients send. The four instances below are the benchmark; tests shrink
// them with scaled.
type spec struct {
	name string
	// tm selects the in-process vacation workload; every kv field is then
	// unused.
	tm bool

	shards, threads int
	keys            int     // keyspace size, all preloaded
	theta           float64 // Zipfian skew of every key draw
	weights         [numClasses]float64
	mkeys           int // keys per MGET/MSET, and the MSET group width
	span            int // keys per SCAN
	depth           int // pipelined commands per batch

	// streamOps is the length of each client's pre-generated op stream;
	// the client cycles through it.
	streamOps int
}

// specs returns the benchmark's workloads in reporting order.
func specs() []spec {
	return []spec{
		{
			name: "kv-point", shards: 4, threads: 2, keys: 1_000_000, theta: 0.5,
			weights: [numClasses]float64{clGet: 90, clSet: 10},
			mkeys:   8, span: 64, depth: 16, streamOps: 1 << 20,
		},
		{
			name: "kv-xshard", shards: 8, threads: 2, keys: 100_000, theta: 0.9,
			weights: [numClasses]float64{clGet: 50, clSet: 20, clMGet: 15, clMSet: 5, clScan: 10},
			mkeys:   8, span: 64, depth: 16, streamOps: 1 << 20,
		},
		{
			name: "kv-hot-write", shards: 1, threads: 2, keys: 1_000, theta: 0.99,
			weights: [numClasses]float64{clSet: 50, clMSet: 50},
			mkeys:   16, span: 64, depth: 16, streamOps: 1 << 20,
		},
		{name: "tm-vacation-high", tm: true},
	}
}

// specByName finds a workload.
func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled divides the data sizes by div, keeping at least four MSET groups
// and a few scans' worth of keys, so the race-detector smoke test runs the
// same code in a fraction of the time.
func (s spec) scaled(div int) spec {
	if s.tm || div <= 1 {
		return s
	}
	s.keys /= div
	if min := 8 * s.mkeys; s.keys < min {
		s.keys = min
	}
	if min := 4 * s.span; s.keys < min {
		s.keys = min
	}
	s.streamOps /= div
	return s
}

// groupKeys is the size of the group range [0, groupKeys): the keys only
// MSET writes, in aligned groups of mkeys. It is half the keyspace when the
// mix has MSETs and empty otherwise, so SET traffic keeps the single range
// [groupKeys, keys).
func (s spec) groupKeys() int {
	if s.weights[clMSet] == 0 {
		return 0
	}
	return s.keys / 2 / s.mkeys * s.mkeys
}

// mixFractions normalises the weights.
func (s spec) mixFractions() [numClasses]float64 {
	var sum float64
	for _, w := range s.weights {
		sum += w
	}
	var f [numClasses]float64
	for i, w := range s.weights {
		f[i] = w / sum
	}
	return f
}

// parallelism is P: both GOMAXPROCS and the client (or worker-thread)
// count. Results are comparable only at equal P.
func parallelism() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runShape is the part of a run that is the same for every workload.
type runShape struct {
	warmup  time.Duration
	window  time.Duration
	windows int
	// trace alternates untraced and traced windows and adds the per-layer
	// measurements.
	trace bool
	// probe bounds each per-layer side measurement (replays, polka run).
	probe time.Duration
	// replayDiv divides the differential replay's per-class op counts.
	replayDiv int
	// minSetups is how many times set-up runs; its time is their median.
	minSetups int
}

// contractShape is the run shape behind --seconds: one-second windows after
// a three-second warm-up. Only the untraced run reports set-up time, so only
// it repeats the set-up.
func contractShape(seconds int, trace bool) runShape {
	shape := runShape{
		warmup:    3 * time.Second,
		window:    time.Second,
		windows:   seconds,
		trace:     trace,
		probe:     time.Second,
		replayDiv: 1,
		minSetups: 5,
	}
	if trace {
		shape.minSetups = 1
	}
	return shape
}
