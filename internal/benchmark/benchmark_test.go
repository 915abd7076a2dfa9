package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// The reported tail is the highest percentile with at least ten
	// samples beyond it; below forty samples that is the median itself.
	for _, tc := range []struct {
		n int
		p float64
	}{{8, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		xs := ramp(tc.n)
		value, p := highestPercentile(xs)
		if p != tc.p {
			t.Errorf("n=%d: reported p%v, want p%v", tc.n, p, tc.p)
		}
		beyond := 0
		for _, x := range xs {
			if x > value {
				beyond++
			}
		}
		if p != 50 && beyond < 10 {
			t.Errorf("n=%d: only %d samples beyond p%v", tc.n, beyond, p)
		}
	}
}

// The spreads the contract is judged by are computed with Python's
// statistics.quantiles(xs, n=4); these are its answers.
func TestQuartileSpread(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{50, 10, 12, 11, 13}, (31.5 - 10.5) / 12},
		{[]float64{2, 4}, (4.5 - 1.5) / 3},
		{[]float64{1, 2, 3, 10}, (8.25 - 1.25) / 2.5},
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	digests := func(seed int64) []string {
		stmts, err := syntheticStatements(6, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, s := range stmts {
			out = append(out, digestHex(s.circuit.Digest()), digestHex(s.assignment.Digest()))
		}
		return out
	}
	if a, b := digests(1), digests(1); !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different circuits")
	}
	if a, b := digests(1), digests(2); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same circuits")
	}
	if d := digests(1); d[0] == d[2] || d[2] == d[4] {
		t.Error("the circuits of one workload are not distinct")
	}

	sched := requestSchedule(1)
	if !reflect.DeepEqual(sched, requestSchedule(1)) {
		t.Error("the same seed gave different request schedules")
	}
	if reflect.DeepEqual(sched, requestSchedule(2)) {
		t.Error("different seeds gave the same request schedule")
	}
	for b := repeatDistance; b+mixBlock <= len(sched); b += mixBlock {
		var kinds [3]int
		for i := b; i < b+mixBlock; i++ {
			kinds[sched[i].Kind]++
			if sched[i].Kind == reqRepeat && sched[i].Witness != sched[i-repeatDistance].Witness {
				t.Fatalf("request %d does not repeat the witness of request %d", i, i-repeatDistance)
			}
		}
		if kinds != [3]int{13, 2, 5} {
			t.Fatalf("block at %d has mix %v, want 13 JSON, 2 streamed, 5 repeats", b, kinds)
		}
	}

	// One served circuit, distinct dense witnesses.
	s1, err := chainStatement(4, sched[0].Witness)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := chainStatement(4, sched[1].Witness)
	if err != nil {
		t.Fatal(err)
	}
	if s1.circuit.Digest() != s2.circuit.Digest() {
		t.Error("the chain circuit depends on its witness")
	}
	if s1.assignment.Digest() == s2.assignment.Digest() {
		t.Error("two requests carry the same witness")
	}
}

// TestSmoke runs the four workloads end to end at toy sizes, traced, and
// holds them to their own correctness gate.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runWorkload(runConfig{Workload: w, Seed: 1, Trace: true, Smoke: true, Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Ops == 0 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Ops)
			}
			for _, d := range endToEnd {
				if v := res.EndToEnd[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", d.Name, v)
				}
			}
			for _, lm := range perLayer {
				v, ok := res.PerLayer[lm.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v (present: %v)", lm.Name, v.Value, ok)
				}
				if lm.Span != "" && !(v.Value > 0) && (w.Serve || !strings.HasPrefix(lm.Name, "service.")) {
					t.Errorf("%s = %v: no span %q was recorded", lm.Name, v.Value, lm.Span)
				}
			}
			if w.Serve {
				if got := res.PerLayer["service.cache_hit_ratio"].Value; got != 0.25 {
					t.Errorf("service.cache_hit_ratio = %v, want exactly 0.25", got)
				}
			}

			data, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			for _, s := range tf.Spans {
				if s.End < s.Start || s.Count < 1 || s.TraceID == "" {
					t.Fatalf("malformed span %+v", s)
				}
				if s.Parent != 0 {
					p := tf.Spans[s.Parent-1]
					if p.TraceID != s.TraceID || p.Start > s.Start {
						t.Fatalf("span %+v does not belong under its parent %+v", s, p)
					}
				}
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "wal-*")); len(left) != 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"prove_ms_p50", "ms", "lower", 0.10}
	higher := metricDef{"proofs_per_s", "1/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, tc := range []struct {
		d          metricDef
		base, cand []float64
		want       string
	}{
		{lower, steady, []float64{105, 106, 104, 105}, "ok"},
		{lower, steady, []float64{115, 116, 114, 115}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80}, "ok"},
		{higher, steady, []float64{85, 86, 84, 85}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120}, "ok"},
		{lower, steady, []float64{90, 140, 100, 150}, "unresolved"},
		{lower, []float64{100}, []float64{120}, "worse"}, // single runs carry no spread
	} {
		if _, got := verdict(tc.d, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.base, tc.cand, got, tc.want)
		}
	}

	write := func(name string, proveMS float64) string {
		set := resultSet{Repeat: 1}
		for _, w := range workloads {
			r := runResult{Workload: w.Name, EndToEnd: map[string]metricValue{}}
			for _, d := range endToEnd {
				r.EndToEnd[d.Name] = metricValue{Value: 10, Unit: d.Unit}
			}
			r.EndToEnd["prove_ms_p50"] = metricValue{Value: proveMS, Unit: "ms"}
			set.Runs = append(set.Runs, r)
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	if code := compareFiles(&out, write("a.json", 10), write("b.json", 10.5)); code != 0 {
		t.Errorf("a 5%% loss exits %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, write("a.json", 10), write("b.json", 13)); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 30%% loss exits %d, want 1 and a row marked worse\n%s", code, out.String())
	}
}

// sources returns the benchmark's own non-test Go files.
func sources(t *testing.T) map[string]string {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(data)
	}
	return out
}

// TestDenyList keeps the benchmark off everything ROADMAP item 3 schedules
// for deletion, and keeps every internal import in layers.go, so that the
// simplification changes can land without editing their own yardstick.
func TestDenyList(t *testing.T) {
	denied := []string{
		// deprecated free functions of the root package and their kin
		"zkspeed.Setup(", "zkspeed.SetupWithSRS(", "zkspeed.Prove(", "zkspeed.Verify(", "zkspeed.SyntheticWorkload(",
		"pcs.Setup(", "zkspeed/internal/hyperplonk\"",
		// kernel selectors and retained baselines
		"KernelSigned", "KernelBatchAffine", "KernelBaseline", "Baseline", "Kernel:",
		// the shifted-opening surface
		"OpenShift", "VerifyShifted", "ShiftProof", "SupportsShift",
		// per-layer goroutine caps
		"Procs", "Parallelism",
	}
	for name, src := range sources(t) {
		for _, tok := range denied {
			if strings.Contains(src, tok) {
				t.Errorf("%s names %q, which is scheduled for deletion", name, tok)
			}
		}
		if name != "layers.go" && strings.Contains(src, `"zkspeed/internal/`) {
			t.Errorf("%s imports zkspeed/internal/...: only layers.go may", name)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above this directory")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, doc.Workloads[i].Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.Name, len(w.Why))
		}
	}
	for i, d := range endToEnd {
		if got := doc.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	for i, lm := range perLayer {
		if got := doc.PerLayer[i]; got.Name != lm.Name || got.Unit != lm.Unit || got.Better != lm.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, lm)
		}
		if _, ok := perNanosecond[lm.Unit]; lm.Span != "" && !ok {
			t.Errorf("%s: span metric with unit %q", lm.Name, lm.Unit)
		}
	}
}
