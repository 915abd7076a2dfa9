package main

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"
)

// benchmark is one measurable unit of the suite. All hooks run on the
// runner's goroutine, strictly sequentially, so closures may share state
// (e.g. a lazily derived SRS) without locking.
type benchmark struct {
	// Name is the stable identifier -run filters and -assert-faster gates
	// match on (e.g. "msm/pippenger/n10/w8/grouped"). Renaming a benchmark
	// breaks every gate that names it, so treat names as part of the CLI.
	Name string
	// Setup runs once, untimed, before any iteration (derive SRSs, build
	// circuits, prime Engine caches).
	Setup func() error
	// Before runs untimed before every iteration (including warmup) —
	// the hook for cloning tables a consuming kernel will destroy.
	Before func() error
	// Iterate is the timed unit of work.
	Iterate func() error
	// StartMeasured runs untimed once the warmup iterations are done,
	// immediately before the first measured iteration — the hook for
	// resetting accumulators (e.g. per-step timing sums) so they cover
	// exactly the measured reps.
	StartMeasured func()
	// Steps optionally reports a per-protocol-step decomposition after
	// all iterations (e2e benchmarks aggregate Engine timings here).
	Steps func() map[string]time.Duration
	// Teardown runs once after the last iteration (service benchmarks
	// release their HTTP server and prover engines here). It runs even
	// when an iteration failed, provided Setup succeeded.
	Teardown func()
}

// record is one benchmark's measured result: what zkbench prints and
// what -assert-faster compares.
type record struct {
	Name        string
	Reps        int
	Median, P95 time.Duration
	// Steps decomposes an e2e proof into per-protocol-step means over the
	// measured reps, the software analogue of the paper's Table 1 /
	// Fig. 12 kernel breakdown. Kernel records leave it empty.
	Steps map[string]time.Duration
}

// runner executes benchmarks with warmup and repetition.
type runner struct {
	// Warmup iterations run before measurement and are discarded; they
	// absorb one-time costs (page faults, branch predictors, lazily
	// derived SRS state) the steady-state number should not include.
	Warmup int
	// Reps is the number of measured iterations.
	Reps int
	// Log, when non-nil, receives one progress line per benchmark, plus a
	// line of step shares for records that decompose into steps.
	Log func(format string, args ...any)
}

// run executes one benchmark and returns its record.
func (r *runner) run(bm benchmark) (record, error) {
	reps := max(r.Reps, 1)
	warmup := max(r.Warmup, 0)
	if bm.Iterate == nil {
		return record{}, fmt.Errorf("bench: %s has no Iterate", bm.Name)
	}
	if bm.Setup != nil {
		if err := bm.Setup(); err != nil {
			return record{}, fmt.Errorf("bench: %s setup: %w", bm.Name, err)
		}
	}
	if bm.Teardown != nil {
		defer bm.Teardown()
	}
	samples := make([]time.Duration, 0, reps)
	for i := 0; i < warmup+reps; i++ {
		if i == warmup && bm.StartMeasured != nil {
			bm.StartMeasured()
		}
		if bm.Before != nil {
			if err := bm.Before(); err != nil {
				return record{}, fmt.Errorf("bench: %s before: %w", bm.Name, err)
			}
		}
		t0 := time.Now()
		if err := bm.Iterate(); err != nil {
			return record{}, fmt.Errorf("bench: %s: %w", bm.Name, err)
		}
		if d := time.Since(t0); i >= warmup {
			samples = append(samples, d)
		}
	}
	rec := record{Name: bm.Name, Reps: reps}
	rec.Median, rec.P95 = summarize(samples)
	if bm.Steps != nil {
		rec.Steps = bm.Steps()
	}
	if r.Log != nil {
		r.Log("%-40s median %12v  p95 %12v  (%d reps)", rec.Name, rec.Median, rec.P95, reps)
		if len(rec.Steps) > 0 {
			r.Log("%-40s steps %s", "", stepShares(rec.Steps))
		}
	}
	return rec, nil
}

// runAll executes the benchmarks in order and returns their records.
func (r *runner) runAll(bms []benchmark) ([]record, error) {
	recs := make([]record, 0, len(bms))
	for _, bm := range bms {
		rec, err := r.run(bm)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// summarize returns the median and p95 of a set of samples. The median
// of an even-length set is the mean of the two central samples; p95 is
// the nearest-rank percentile (with fewer than 20 samples this is simply
// the maximum).
func summarize(samples []time.Duration) (median, p95 time.Duration) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	median = s[n/2]
	if n%2 == 0 {
		median = (s[n/2-1] + s[n/2]) / 2
	}
	return median, s[int(math.Ceil(0.95*float64(n)))-1]
}

// stepShares renders a step decomposition as percentages of its total,
// largest first (ties by name, so the line is stable).
func stepShares(steps map[string]time.Duration) string {
	names := make([]string, 0, len(steps))
	var total time.Duration
	for k, v := range steps {
		names = append(names, k)
		total += v
	}
	slices.SortFunc(names, func(a, b string) int {
		return cmp.Or(cmp.Compare(steps[b], steps[a]), strings.Compare(a, b))
	})
	parts := make([]string, len(names))
	for i, k := range names {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(steps[k]) / float64(total)
		}
		parts[i] = fmt.Sprintf("%s %.0f%%", k, pct)
	}
	return strings.Join(parts, ", ")
}
