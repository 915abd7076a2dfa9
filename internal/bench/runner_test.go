package bench

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
	bm := Benchmark{
		Name:   "fake/kernel",
		Kind:   KindKernel,
		Params: map[string]string{"k": "v"},
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
	r := Runner{Warmup: 2, Reps: 3}
	rec, err := r.Run(bm)
	if err != nil {
		t.Fatal(err)
	}
	if setups != 1 || befores != 5 || iters != 5 {
		t.Errorf("hook counts: setup=%d before=%d iterate=%d", setups, befores, iters)
	}
	if itersAtMeasureStart != 2 {
		t.Errorf("StartMeasured fired after %d iterations, want exactly the 2 warmups", itersAtMeasureStart)
	}
	if rec.Reps != 3 || len(rec.RawNS) != 3 {
		t.Errorf("want 3 measured samples, got reps=%d raw=%d", rec.Reps, len(rec.RawNS))
	}
	if rec.Stats.MedianNS < time.Millisecond.Nanoseconds() {
		t.Errorf("median %dns below the 1ms sleep floor", rec.Stats.MedianNS)
	}
	if rec.StepsNS["stage"] != (2 * time.Millisecond).Nanoseconds() {
		t.Errorf("steps not propagated: %v", rec.StepsNS)
	}
	if rec.Name != "fake/kernel" || rec.Kind != KindKernel || rec.Params["k"] != "v" {
		t.Errorf("metadata not propagated: %+v", rec)
	}
}

func TestRunnerErrors(t *testing.T) {
	boom := errors.New("boom")
	r := Runner{Reps: 1}
	if _, err := r.Run(Benchmark{Name: "x", Iterate: func() error { return boom }}); !errors.Is(err, boom) {
		t.Errorf("iterate error not surfaced: %v", err)
	}
	if _, err := r.Run(Benchmark{Name: "x", Setup: func() error { return boom }, Iterate: func() error { return nil }}); !errors.Is(err, boom) {
		t.Errorf("setup error not surfaced: %v", err)
	}
	if _, err := r.Run(Benchmark{Name: "x"}); err == nil || !strings.Contains(err.Error(), "no Iterate") {
		t.Errorf("nil Iterate must error, got %v", err)
	}
}

// TestKernelSuiteRuns executes a miniature kernel suite end to end and
// checks the records look sane — this is the smoke test that the closures
// wire real kernels, not stubs.
func TestKernelSuiteRuns(t *testing.T) {
	cfg := SuiteConfig{
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
	bms := KernelSuite(cfg)
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
	r := Runner{Warmup: cfg.Warmup, Reps: cfg.Reps}
	recs, err := r.RunAll(bms)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(bms) {
		t.Fatalf("RunAll returned %d records for %d benchmarks", len(recs), len(bms))
	}
	for _, rec := range recs {
		if rec.Kind != KindKernel {
			t.Errorf("%s: kind %q", rec.Name, rec.Kind)
		}
		if rec.Stats.MedianNS <= 0 {
			t.Errorf("%s: non-positive median", rec.Name)
		}
	}
}
