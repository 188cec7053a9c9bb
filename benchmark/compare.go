package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// benchFile is the results file of one -all run: every workload's metrics
// with the machine facts they are comparable under.
type benchFile struct {
	NumCPU     int                      `json:"num_cpu"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	P          int                      `json:"p"`
	GoVersion  string                   `json:"go_version"`
	GitSHA     string                   `json:"git_sha"`
	Seed       uint64                   `json:"seed"`
	Seconds    int                      `json:"seconds"`
	Runs       int                      `json:"runs"`
	Workloads  map[string]*workloadFile `json:"workloads"`
}

type workloadFile struct {
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	StreamHash string           `json:"stream_hash"`
	EndToEnd   map[string]value `json:"end_to_end"`
	PerLayer   map[string]value `json:"per_layer"`
}

// gitSHA asks git for the checkout's commit; a checkout that is not a
// repository has none.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// allRuns is how many untraced runs, on consecutive seeds, stand behind each
// end-to-end figure of a results file. One run lands up to 10% from the next
// on a small shared box; the median of five is what two files can be
// compared on.
const allRuns = 5

// runAll runs every workload — allRuns times untraced, keeping each metric's
// median, then once traced — and writes path.
func runAll(e env, seconds int, path string) error {
	bf := &benchFile{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: e.p, P: e.p, GoVersion: runtime.Version(),
		GitSHA: gitSHA(), Seed: e.seed, Seconds: seconds, Runs: allRuns, Workloads: map[string]*workloadFile{},
	}
	allCorrect := true
	for _, s := range specs() {
		wf := &workloadFile{Correct: true, EndToEnd: map[string]value{}}
		add := func(res *result) {
			wf.Correct = wf.Correct && res.Correct
			wf.Attempted += res.Attempted
			wf.Failed += res.Failed
		}
		samples := map[string][]float64{}
		for r := 0; r < allRuns; r++ {
			run := e
			run.seed += uint64(r)
			run.shape = contractShape(seconds, false)
			res, err := runWorkload(s, run)
			if err != nil {
				return err
			}
			add(res)
			for name, v := range res.Metrics.export() {
				samples[name] = append(samples[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			wf.EndToEnd[d.name] = value{Value: median(samples[d.name]), Unit: d.unit}
		}
		e.shape = contractShape(seconds, true)
		res, err := runWorkload(s, e)
		if err != nil {
			return err
		}
		add(res)
		wf.StreamHash = fmt.Sprintf("%016x", res.StreamHash)
		wf.PerLayer = res.Metrics.export()
		allCorrect = allCorrect && wf.Correct
		bf.Workloads[s.name] = wf
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "wrote %s\n", path)
	if !allCorrect {
		return fmt.Errorf("a workload failed verification or a sanity assertion")
	}
	return nil
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	bf := &benchFile{}
	if err := json.Unmarshal(data, bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worseBy(d decl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, for every workload and end-to-end metric, both
// values, how much worse B is than A, the bound, and pass or fail. It
// returns an error when any metric of B is worse than A's by more than its
// bound, or when the two files are not comparable.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readBenchFile(pathA)
	if err != nil {
		return err
	}
	b, err := readBenchFile(pathB)
	if err != nil {
		return err
	}
	if a.P != b.P {
		return fmt.Errorf("results are comparable only at equal P: %d vs %d", a.P, b.P)
	}
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B worse", "bound", "")
	failures := 0
	for _, s := range specs() {
		wa, wb := a.Workloads[s.name], b.Workloads[s.name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-18s missing from one file  FAIL\n", s.name)
			failures++
			continue
		}
		for _, d := range endToEnd {
			va, vb := wa.EndToEnd[d.name].Value, wb.EndToEnd[d.name].Value
			worse := worseBy(d, va, vb)
			verdict := "pass"
			if worse > d.bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(w, "%-18s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				s.name, d.name, va, vb, worse*100, d.bound*100, verdict)
		}
		if !wb.Correct || wb.Failed > 0 {
			fmt.Fprintf(w, "%-18s B is not correct (%d failed)  FAIL\n", s.name, wb.Failed)
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d comparison(s) failed", failures)
	}
	return nil
}
