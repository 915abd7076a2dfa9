package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunnerLifecycle checks hook ordering, that warmup samples are
// discarded from the records, and that a group's benchmarks take turns.
func TestRunnerLifecycle(t *testing.T) {
	var setups, befores, teardowns int
	var order []string
	fake := func(name string) benchmark {
		return benchmark{
			Name:   name,
			Setup:  func() error { setups++; return nil },
			Before: func() error { befores++; return nil },
			Iterate: func() error {
				order = append(order, name)
				time.Sleep(time.Millisecond)
				return nil
			},
			Teardown: func() { teardowns++ },
		}
	}
	r := runner{Warmup: 2, Reps: 3}
	recs, err := r.run([]benchmark{fake("a"), fake("b")})
	if err != nil {
		t.Fatal(err)
	}
	if setups != 2 || befores != 10 || teardowns != 2 {
		t.Errorf("hook counts: setup=%d before=%d teardown=%d", setups, befores, teardowns)
	}
	if got := strings.Join(order, ""); got != "ababababab" {
		t.Errorf("iteration order %q, want the two benchmarks in turn", got)
	}
	if len(recs) != 2 {
		t.Fatalf("want 2 records, got %+v", recs)
	}
	for i, rec := range recs {
		if rec.Name != []string{"a", "b"}[i] || rec.Reps != 3 {
			t.Errorf("record %d: %+v, want 3 measured samples", i, rec)
		}
		if rec.Median < time.Millisecond {
			t.Errorf("%s: median %v below the 1ms sleep floor", rec.Name, rec.Median)
		}
	}
}

func TestRunnerErrors(t *testing.T) {
	boom := errors.New("boom")
	r := runner{Reps: 1}
	if _, err := r.run([]benchmark{{Name: "x", Iterate: func() error { return boom }}}); !errors.Is(err, boom) {
		t.Errorf("iterate error not surfaced: %v", err)
	}
	// A failed Setup still tears down the group members already set up.
	tornDown := false
	ok := benchmark{Name: "ok", Iterate: func() error { return nil }, Teardown: func() { tornDown = true }}
	bad := benchmark{Name: "x", Setup: func() error { return boom }, Iterate: func() error { return nil }}
	if _, err := r.run([]benchmark{ok, bad}); !errors.Is(err, boom) || !tornDown {
		t.Errorf("setup error not surfaced (%v) or earlier member not torn down (%v)", err, tornDown)
	}
	if _, err := r.run([]benchmark{{Name: "x"}}); err == nil || !strings.Contains(err.Error(), "no Iterate") {
		t.Errorf("nil Iterate must error, got %v", err)
	}
}

// TestKernelSuiteRuns executes a miniature kernel suite end to end and
// checks the records look sane — this is the smoke test that the closures
// wire real kernels, not stubs.
func TestKernelSuiteRuns(t *testing.T) {
	groups := kernelSuite(sizes{MSM: 5, Sumcheck: []int{5}, Prove: 5}, 7)
	// 4 ff records (fr and fp mul, each with its -baseline), the Miller
	// loop over 17 pairs walking G2 and prepared, msm/fast and two
	// Pippenger widths, the opening chain in one MSMs call and one call
	// per job, one serial/parallel sumcheck pair, commit and commit-key:
	// 15 records in the 7 groups of the gates that compare them.
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	if len(groups) != 7 || n != 15 {
		t.Fatalf("want 15 kernel benchmarks in 7 groups, got %d in %d", n, len(groups))
	}
	r := runner{Reps: 1}
	recs, err := r.runAll(groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("runAll returned %d records for %d benchmarks", len(recs), n)
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
