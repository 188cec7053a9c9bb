package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testSpec(t *testing.T, name string) spec {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs() {
		if s.tm {
			continue
		}
		s = s.scaled(100)
		ks := newKeyspace(s)
		a := genStream(s, ks, 7, 0, 20_000).hash()
		b := genStream(s, ks, 7, 0, 20_000).hash()
		if a != b {
			t.Errorf("%s: same seed gave stream hashes %x and %x", s.name, a, b)
		}
		if c := genStream(s, ks, 8, 0, 20_000).hash(); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream hash %x", s.name, a)
		}
		if c := genStream(s, ks, 7, 1, 20_000).hash(); c == a {
			t.Errorf("%s: clients 0 and 1 gave the same stream hash %x", s.name, a)
		}
	}
}

func TestRealisedMixMatchesWeights(t *testing.T) {
	const n = 200_000
	for _, s := range specs() {
		if s.tm {
			continue
		}
		s = s.scaled(100)
		counts := genStream(s, newKeyspace(s), 3, 0, n).classCounts()
		for class, want := range s.mixFractions() {
			got := float64(counts[class]) / n
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: %s is %.4f of the stream, weight says %.4f", s.name, classNames[class], got, want)
			}
		}
	}
}

func TestStreamKeysStayInTheirRanges(t *testing.T) {
	s := testSpec(t, "kv-xshard").scaled(100)
	ks := newKeyspace(s)
	if ks.group == 0 || ks.group%ks.mkeys != 0 || ks.group >= ks.keys {
		t.Fatalf("group range [0,%d) of %d keys, groups of %d", ks.group, ks.keys, ks.mkeys)
	}
	st := genStream(s, ks, 5, 0, 50_000)
	keys := make([]int64, ks.mkeys)
	for i := range st.ops {
		o := &st.ops[i]
		switch o.class {
		case clSet:
			if int(o.key) < ks.group || int(o.key) >= ks.keys {
				t.Fatalf("SET key %d outside the single range [%d,%d)", o.key, ks.group, ks.keys)
			}
		case clMSet:
			if int(o.key)%ks.mkeys != 0 || int(o.key)+ks.mkeys > ks.group {
				t.Fatalf("MSET group at %d is not an aligned group inside [0,%d)", o.key, ks.group)
			}
		case clMGet:
			st.mgetKeys(o, ks, keys)
			for _, k := range keys {
				if k < 0 || int(k) >= ks.keys {
					t.Fatalf("MGET key %d outside [0,%d)", k, ks.keys)
				}
			}
		case clScan:
			if int(o.key) < 0 || int(o.key)+ks.span > ks.keys {
				t.Fatalf("SCAN [%d,%d) leaves [0,%d)", o.key, int(o.key)+ks.span, ks.keys)
			}
		}
	}
}

// scanReply builds the correct reply to SCAN [lo, lo+span) over a store where
// every key carries nonce 1.
func scanReply(ks *keyspace, lo int) (keys, vals []int64) {
	for k := lo; k < lo+ks.span && k < ks.keys; k++ {
		keys = append(keys, int64(k))
		vals = append(vals, encodeVal(k, 1))
	}
	return keys, vals
}

func TestVerifierRejectsWrongReplies(t *testing.T) {
	s := testSpec(t, "kv-xshard").scaled(100)
	ks := newKeyspace(s)
	m := ks.mkeys

	if !ks.checkGet(5, encodeVal(5, 9), true) {
		t.Error("a correct GET reply was rejected")
	}
	if ks.checkGet(5, encodeVal(6, 9), true) {
		t.Error("a GET reply holding another key's value was accepted")
	}
	if ks.checkGet(5, 0, false) {
		t.Error("a nil reply for a preloaded key was accepted")
	}

	group := func(nonces ...uint32) (keys, vals []int64, present []bool) {
		for j := 0; j < m; j++ {
			keys = append(keys, int64(j))
			vals = append(vals, encodeVal(j, nonces[j%len(nonces)]))
			present = append(present, true)
		}
		return
	}
	keys, vals, present := group(4)
	if !ks.checkMGet(keys, vals, present, true) {
		t.Error("a whole group under one nonce was rejected")
	}
	keys, vals, present = group(4, 5)
	if ks.checkMGet(keys, vals, present, true) {
		t.Error("a torn group — two nonces in one MGET of a whole group — was accepted")
	}
	if !ks.checkMGet(keys, vals, present, false) {
		t.Error("independent keys with different nonces were rejected")
	}

	skeys, svals := scanReply(ks, 0)
	if !ks.checkScan(0, ks.span, skeys, svals) {
		t.Fatal("a correct SCAN reply was rejected")
	}
	torn := append([]int64(nil), svals...)
	torn[m+1] = encodeVal(m+1, 2) // second group, fully inside the range
	if ks.checkScan(0, ks.span, skeys, torn) {
		t.Error("a SCAN reply with a torn group was accepted")
	}
	outside := append([]int64(nil), skeys...)
	outside[len(outside)-1] = int64(ks.span) // == hi, outside [lo, hi)
	tvals := append([]int64(nil), svals...)
	tvals[len(tvals)-1] = encodeVal(ks.span, 1)
	if ks.checkScan(0, ks.span, outside, tvals) {
		t.Error("a SCAN reply with a key outside [lo,hi) was accepted")
	}
	swapped := append([]int64(nil), skeys...)
	swapped[3], swapped[4] = swapped[4], swapped[3]
	if ks.checkScan(0, ks.span, swapped, svals) {
		t.Error("a SCAN reply with descending keys was accepted")
	}
	if ks.checkScan(0, ks.span, skeys[:len(skeys)-1], svals[:len(svals)-1]) {
		t.Error("a SCAN reply missing a preloaded key was accepted")
	}
	// A group cut by the range end is not fully covered: its nonces may
	// differ from nothing the reply shows, so only whole groups are held to
	// one nonce.
	lo := m / 2
	skeys, svals = scanReply(ks, lo)
	svals[0] = encodeVal(lo, 7)
	if !ks.checkScan(lo, lo+ks.span, skeys, svals) {
		t.Error("a partly covered group was held to a single nonce")
	}
}

func TestPercentile(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
		ok   bool
	}{
		{0.50, 501, true},
		{0.99, 991, false}, // 9 samples beyond it
		{0.98, 981, true},  // 19 beyond
		{0.999, 1000, false},
	} {
		got, ok := percentile(sorted, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..1000, %v) = %d, %v; want %d, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("a percentile of no samples was reported")
	}
	r1, r2 := &recorder{}, &recorder{}
	for _, v := range []int64{9, 1, 5} {
		r1.add(v)
	}
	r2.add(3)
	if got := mergeSorted([]*recorder{r1, r2}); len(got) != 4 || got[0] != 1 || got[1] != 3 || got[3] != 9 {
		t.Errorf("mergeSorted = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v; want 2.75, 8.25, 5.5", q1, q3, median(xs))
	}
	if got := iqrFrac(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrFrac = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v; want 1, 4", q1, q3)
	}
}

func TestSelfTimesSumToTheOutermostLevel(t *testing.T) {
	levels := []float64{2100, 1300, 500, 200}
	self := selfTimes(levels)
	want := []float64{800, 800, 300, 200}
	sum := 0.0
	for i, v := range self {
		if v != want[i] {
			t.Errorf("self[%d] = %v, want %v", i, v, want[i])
		}
		sum += v
	}
	if sum != levels[0] {
		t.Errorf("self times sum to %v, want the wire-replay figure %v", sum, levels[0])
	}
}

func TestWorseByFollowsTheMetricsDirection(t *testing.T) {
	higher := decl{better: "higher"}
	lower := decl{better: "lower"}
	if got := worseBy(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("ops/s 100 -> 90 is worse by %v, want 0.10", got)
	}
	if got := worseBy(lower, 100, 90); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("latency 100 -> 90 is worse by %v, want -0.10", got)
	}
}

func writeBench(t *testing.T, dir, name string, opsPerSec float64) string {
	t.Helper()
	bf := benchFile{P: 2, Workloads: map[string]*workloadFile{}}
	for _, s := range specs() {
		e2e := map[string]value{}
		for _, d := range endToEnd {
			e2e[d.name] = value{Value: 10, Unit: d.unit}
		}
		e2e["ops_per_s"] = value{Value: opsPerSec, Unit: "ops/s"}
		bf.Workloads[s.name] = &workloadFile{Correct: true, Attempted: 1, EndToEnd: e2e}
	}
	data, err := json.Marshal(bf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGatesOnTheBound(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "a.json", 1000)
	within := writeBench(t, dir, "b.json", 950)
	slower := writeBench(t, dir, "c.json", 700)
	var out bytes.Buffer
	if err := compareFiles(&out, base, within); err != nil {
		t.Errorf("5%% slower failed the comparison: %v\n%s", err, out.String())
	}
	if err := compareFiles(&out, base, slower); err == nil {
		t.Error("30% slower passed the comparison")
	}
	if err := compareFiles(&out, slower, base); err != nil {
		t.Errorf("a faster B failed the comparison: %v", err)
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Error("the failing comparison printed no FAIL row")
	}
}

// TestBenchmarkJSONDeclaresTheSameMetrics keeps BENCHMARK.json, which the
// driver reads, in step with the metrics the program emits.
func TestBenchmarkJSONDeclaresTheSameMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs()) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(specs()))
	}
	for i, s := range specs() {
		if bj.Workloads[i].Name != s.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, bj.Workloads[i].Name, s.name)
		}
		if n := len(bj.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %q: why has %d characters, want 1..200", s.name, n)
		}
	}
	same := func(kind string, got []jsonMetric, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json says %v, the program %v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bounds differ", kind, d.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s metric %s has a bound", kind, d.name)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
}

// TestSmoke runs every workload in both modes for 200 ms of windows with the
// data 100 times smaller, and checks that each declared metric is printed
// exactly once and that nothing fails verification.
func TestSmoke(t *testing.T) {
	shape := runShape{
		warmup:    50 * time.Millisecond,
		window:    50 * time.Millisecond,
		windows:   4,
		probe:     50 * time.Millisecond,
		replayDiv: 64,
		minSetups: 1,
	}
	for _, s := range specs() {
		for _, trace := range []bool{false, true} {
			name := s.name + "/end-to-end"
			decls := endToEnd
			if trace {
				name = s.name + "/per-layer"
				decls = perLayer
			}
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				shape.trace = trace
				e := env{seed: 11, shape: shape, p: 2, out: &out, outDir: t.TempDir()}
				res, err := runWorkload(s.scaled(100), e)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d\n%s", res.Attempted, res.Failed, out.String())
				}
				printed := map[string]int{}
				for _, line := range strings.Split(out.String(), "\n") {
					if f := strings.Fields(line); len(f) >= 3 && f[0] == "metric" {
						printed[f[2]]++
					}
				}
				for _, d := range decls {
					if printed[d.name] != 1 {
						t.Errorf("metric %s printed %d times, want once", d.name, printed[d.name])
					}
				}
				if len(printed) != len(decls) {
					t.Errorf("%d metric names printed, %d declared", len(printed), len(decls))
				}
				exported := res.line().Metrics
				if len(exported) != len(decls) {
					t.Errorf("result line holds %d metrics, want %d", len(exported), len(decls))
				}
				if trace {
					if _, err := os.Stat(filepath.Join(e.outDir, s.name+".trace.json")); err != nil {
						t.Errorf("no trace file: %v", err)
					}
					if !s.tm && !strings.Contains(out.String(), "budget mix") {
						t.Error("the traced kv run printed no layer-budget table")
					}
				}
			})
		}
	}
}
