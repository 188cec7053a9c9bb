// Command benchmark is the repo benchmark: one process hosts the system under
// test and a seeded closed-loop load generator, runs one of four workloads —
// three against the kv server over loopback, one against the STM directly —
// verifies every reply, and prints each metric by name and unit. See
// README.md for the workloads, the metric map and how to read the output.
//
//	benchmark --workload kv-point --seed 1 --seconds 20 --trace 0
//	benchmark -all -seed 1 -seconds 20 -o results/BENCH_14.json
//	benchmark -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// resultLine is the last line of a single-workload run's standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func (r *result) line() resultLine {
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics.export()}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "", "workload to run: kv-point, kv-xshard, kv-hot-write or tm-vacation-high")
		seed     = flag.Uint64("seed", 1, "seed of the generated commands and of the managers")
		seconds  = flag.Int("seconds", 20, "measured one-second windows per run")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the end-to-end one")
		outDir   = flag.String("out", "benchmark/out", "directory for trace files")
		all      = flag.Bool("all", false, "run every workload, five times untraced and once traced, and write one results file of medians")
		outFile  = flag.String("o", "", "results file of -all (default <out>/BENCH.json)")
		compare  = flag.Bool("compare", false, "compare two -all results files given as arguments")
	)
	flag.Parse()
	args := flag.Args()
	if *compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments: %v", args)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1 (got %d)", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1 (got %d)", *trace)
	}
	e := env{seed: *seed, p: parallelism(), out: os.Stdout, outDir: *outDir}
	if *all {
		if *outFile == "" {
			*outFile = filepath.Join(*outDir, "BENCH.json")
		}
		return runAll(e, *seconds, *outFile)
	}
	s, err := specByName(*workload)
	if err != nil {
		return err
	}
	e.shape = contractShape(*seconds, *trace == 1)
	res, err := runWorkload(s, e)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
