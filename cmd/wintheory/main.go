// Command wintheory checks the paper's makespan theorems empirically in
// the discrete-time window-model simulator: it sweeps the contention
// measure C (and optionally M and N), runs the Offline and Online
// algorithms plus the one-shot baseline on random bounded-degree conflict
// graphs, and reports measured makespans against the theorem expressions
//
//	Offline (Thm 2.1): O(τ·(C + N·ln MN))
//	Online  (Thm 2.3): O(τ·(C·ln MN + N·ln² MN))
//
// The ratio column should stay below a modest constant as the parameters
// scale if the bounds hold.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"wincm/internal/sim"
	"wincm/internal/stats"
)

// config is one wintheory invocation. sweep holds the -c entries, or the
// -s entries under -ratio.
type config struct {
	m, n, reps int
	colBias    float64
	seed       uint64
	ratio      bool
	sweep      []int
}

// parseArgs turns the command line into a config and fails fast, naming the
// flag, on what would otherwise print a meaningless table: -reps below 1,
// an -s entry below 1 under -ratio (sim.Run takes the resource model only
// for s > 0), a negative -c entry and stray arguments. -colbias is
// sim.Run's to check.
func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("wintheory", flag.ContinueOnError)
	var (
		cfg config
		cs  = fs.String("c", "2,4,8,16,32,64", "comma-separated contention measures C to sweep")
		ss  = fs.String("s", "2,4,8,16,32,64", "comma-separated resource counts s for -ratio")
	)
	fs.IntVar(&cfg.m, "m", 32, "threads M")
	fs.IntVar(&cfg.n, "n", 16, "transactions per thread N")
	fs.Float64Var(&cfg.colBias, "colbias", 0.7, "fraction of conflicts kept inside window columns")
	fs.IntVar(&cfg.reps, "reps", 5, "repetitions per point")
	fs.Uint64Var(&cfg.seed, "seed", 1, "master seed")
	fs.BoolVar(&cfg.ratio, "ratio", false, "run the competitive-ratio sweep over resources s instead (Thms 2.2/2.4)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if cfg.reps < 1 {
		return config{}, fmt.Errorf("-reps must be >= 1 (got %d)", cfg.reps)
	}
	name, csv, min := "c", *cs, 0
	if cfg.ratio {
		name, csv, min = "s", *ss, 1
	}
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < min {
			return config{}, fmt.Errorf("-%s entries must be integers >= %d (got %q)", name, min, f)
		}
		cfg.sweep = append(cfg.sweep, v)
	}
	return cfg, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatalf("%v", err)
	}
	if cfg.ratio {
		ratioSweep(cfg)
		return
	}

	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "alg\tM\tN\tC\tmakespan\tbound\tratio\taborts\n")
	for _, alg := range []sim.Algorithm{sim.Offline, sim.Online, sim.OneShot} {
		for _, c := range cfg.sweep {
			var spans, ratios, aborts []float64
			var bound float64
			for rep := 0; rep < cfg.reps; rep++ {
				p := sim.Params{
					M: cfg.m, N: cfg.n, C: c, ColBias: cfg.colBias,
					Algorithm: alg, Seed: cfg.seed + uint64(rep)*7919,
				}
				res, err := sim.Run(p)
				if err != nil {
					fatalf("%v", err)
				}
				spans = append(spans, float64(res.Makespan))
				ratios = append(ratios, float64(res.Makespan)/res.Bound)
				aborts = append(aborts, float64(res.Aborts))
				bound = res.Bound
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%.1f\t%.2f\t%.0f\n",
				alg, cfg.m, cfg.n, c,
				stats.Mean(spans), bound, stats.Mean(ratios), stats.Mean(aborts))
		}
	}
	if err := tw.Flush(); err != nil {
		fatalf("%v", err)
	}

	// Linear-fit summary: makespan vs bound across the C sweep per
	// algorithm; slope ≈ the hidden constant, correlation ≈ 1 means the
	// theorem expression explains the growth.
	fmt.Println()
	for _, alg := range []sim.Algorithm{sim.Offline, sim.Online} {
		var xs, ys []float64
		for _, c := range cfg.sweep {
			p := sim.Params{M: cfg.m, N: cfg.n, C: c, ColBias: cfg.colBias, Algorithm: alg, Seed: cfg.seed}
			res, err := sim.Run(p)
			if err != nil {
				fatalf("%v", err)
			}
			xs = append(xs, res.Bound)
			ys = append(ys, float64(res.Makespan))
		}
		if len(xs) >= 2 {
			a, b := stats.LinearFit(xs, ys)
			fmt.Printf("%s: makespan ≈ %.3f·bound %+.1f (r=%.3f)\n",
				alg, a, b, stats.Pearson(xs, ys))
		}
	}
}

// ratioSweep reproduces the competitive-ratio statements (Theorems
// 2.2/2.4): conflicts derive from s shared resources; the reported ratio
// is makespan over the optimal lower bound and its envelope is the
// theorem expression s + ln(MN) (resp. s·ln(MN) + ln²(MN)).
func ratioSweep(cfg config) {
	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "alg\tM\tN\ts\tmakespan\topt-LB\tratio\tthm-envelope\n")
	ln := math.Log(float64(cfg.m * cfg.n))
	for _, alg := range []sim.Algorithm{sim.Offline, sim.Online, sim.OneShot} {
		for _, s := range cfg.sweep {
			var spans, lbs, ratios []float64
			for rep := 0; rep < cfg.reps; rep++ {
				res, err := sim.Run(sim.Params{
					M: cfg.m, N: cfg.n, Resources: s,
					Algorithm: alg, Seed: cfg.seed + uint64(rep)*104729,
				})
				if err != nil {
					fatalf("%v", err)
				}
				spans = append(spans, float64(res.Makespan))
				lbs = append(lbs, float64(res.OptLB))
				ratios = append(ratios, res.Ratio)
			}
			envelope := float64(s) + ln
			if alg == sim.Online {
				envelope = float64(s)*ln + ln*ln
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\t%.1f\t%.2f\t%.1f\n",
				alg, cfg.m, cfg.n, s,
				stats.Mean(spans), stats.Mean(lbs), stats.Mean(ratios), envelope)
		}
	}
	if err := tw.Flush(); err != nil {
		fatalf("%v", err)
	}
	fmt.Println("\nratio should stay well under the theorem envelope at every s")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wintheory: "+format+"\n", args...)
	os.Exit(1)
}
