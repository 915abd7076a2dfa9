package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunnerLifecycle checks hook ordering and that warmup samples are
// discarded from the record.
func TestRunnerLifecycle(t *testing.T) {
	var setups, befores, iters int
	itersAtMeasureStart := -1
	bm := benchmark{
		Name:   "fake/kernel",
		Setup:  func() error { setups++; return nil },
		Before: func() error { befores++; return nil },
		StartMeasured: func() {
			itersAtMeasureStart = iters
		},
		Iterate: func() error {
			iters++
			time.Sleep(time.Millisecond)
			return nil
		},
		Steps: func() map[string]time.Duration {
			return map[string]time.Duration{"stage": 2 * time.Millisecond}
		},
	}
	r := runner{Warmup: 2, Reps: 3}
	rec, err := r.run(bm)
	if err != nil {
		t.Fatal(err)
	}
	if setups != 1 || befores != 5 || iters != 5 {
		t.Errorf("hook counts: setup=%d before=%d iterate=%d", setups, befores, iters)
	}
	if itersAtMeasureStart != 2 {
		t.Errorf("StartMeasured fired after %d iterations, want exactly the 2 warmups", itersAtMeasureStart)
	}
	if rec.Reps != 3 {
		t.Errorf("want 3 measured samples, got reps=%d", rec.Reps)
	}
	if rec.Median < time.Millisecond {
		t.Errorf("median %v below the 1ms sleep floor", rec.Median)
	}
	if rec.Steps["stage"] != 2*time.Millisecond {
		t.Errorf("steps not propagated: %v", rec.Steps)
	}
	if rec.Name != "fake/kernel" {
		t.Errorf("name not propagated: %+v", rec)
	}
}

func TestRunnerErrors(t *testing.T) {
	boom := errors.New("boom")
	r := runner{Reps: 1}
	if _, err := r.run(benchmark{Name: "x", Iterate: func() error { return boom }}); !errors.Is(err, boom) {
		t.Errorf("iterate error not surfaced: %v", err)
	}
	if _, err := r.run(benchmark{Name: "x", Setup: func() error { return boom }, Iterate: func() error { return nil }}); !errors.Is(err, boom) {
		t.Errorf("setup error not surfaced: %v", err)
	}
	if _, err := r.run(benchmark{Name: "x"}); err == nil || !strings.Contains(err.Error(), "no Iterate") {
		t.Errorf("nil Iterate must error, got %v", err)
	}
}

// TestKernelSuiteRuns executes a miniature kernel suite end to end and
// checks the records look sane — this is the smoke test that the closures
// wire real kernels, not stubs.
func TestKernelSuiteRuns(t *testing.T) {
	cfg := suiteConfig{
		Quick:       true,
		MSMLogN:     5,
		Windows:     []int{4},
		SumcheckMu:  5,
		SumcheckMus: []int{5},
		PCSMu:       5,
		PCSMus:      []int{5},
		FoldMu:      6,
		MLEMu:       6,
		Warmup:      0,
		Reps:        1,
		Seed:        7,
	}
	bms := kernelSuite(cfg)
	// 8 ff field-arithmetic records + 5 pairing records (pairing,
	// finalexp, miller/n1, miller/n17, miller-prepared/n17) + 1 window × 2 schedules of the
	// pippenger reference +
	// {fast, sparse-fast, fast/allones} + legacy sumcheck + 1
	// serial/parallel sumcheck pair + commit + commit-key + open + per-scheme records
	// (pst: setup+commit+open+verify; zeromorph: setup+commit+open+verify+
	// open-shift+naive) + 5 serial/parallel MTU kernel pairs + sha3 + fold.
	if len(bms) != 46 {
		t.Fatalf("want 46 kernel benchmarks, got %d", len(bms))
	}
	r := runner{Warmup: cfg.Warmup, Reps: cfg.Reps}
	recs, err := r.runAll(bms)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(bms) {
		t.Fatalf("runAll returned %d records for %d benchmarks", len(recs), len(bms))
	}
	for _, rec := range recs {
		if rec.Median <= 0 {
			t.Errorf("%s: non-positive median", rec.Name)
		}
	}
}

func TestSummarize(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	median, p95 := summarize([]time.Duration{ms(3), ms(1), ms(2), ms(4), ms(100)})
	if median != ms(3) {
		t.Errorf("median: got %v", median)
	}
	if p95 != ms(100) {
		t.Errorf("p95: got %v", p95)
	}
	// Even-length median averages the central pair.
	if median, _ = summarize([]time.Duration{ms(1), ms(2), ms(3), ms(4)}); median != 2500*time.Microsecond {
		t.Errorf("even median: got %v want 2.5ms", median)
	}
	if median, p95 = summarize(nil); median != 0 || p95 != 0 {
		t.Errorf("empty input: got %v, %v", median, p95)
	}
}
