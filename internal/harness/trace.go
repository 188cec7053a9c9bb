package harness

import "fmt"

// TraceFig runs TelemetryFig's cell — the first of Benchmarks under Manager
// at the largest of Threads — with the flight recorder recording one
// logical transaction in sample, and returns the run with the cell's label
// ("list under polka, M=8").
func TraceFig(o Options, sample int) (Result, string, error) {
	if sample < 1 {
		return Result{}, "", fmt.Errorf("harness: trace sample must be >= 1 (got %d)", sample)
	}
	o, err := o.resolve()
	if err != nil {
		return Result{}, "", err
	}
	benchmark, threads, label := o.watched()
	cfg := o.Config(o.Manager, threads, o.Seed)
	cfg.TraceSample = sample
	res, err := o.timed(benchmark, cfg, 0)
	return res, label, err
}
