package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// benchmark is one measurable unit of the suite. All hooks run on the
// runner's goroutine, strictly sequentially, so closures may share state
// (e.g. a lazily derived SRS) without locking, and the benchmarks of one
// group may share what their Before hooks build.
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
	// Teardown runs once after the group's last iteration (service
	// benchmarks release their HTTP server and prover engines here). It
	// runs even when an iteration failed, provided Setup succeeded.
	Teardown func()
}

// record is one benchmark's measured result: what zkbench prints and
// what -assert-faster compares.
type record struct {
	Name        string
	Reps        int
	Median, P95 time.Duration
}

// runner executes benchmarks with warmup and repetition.
type runner struct {
	// Warmup iterations run before measurement and are discarded; they
	// absorb one-time costs (page faults, branch predictors, lazily
	// derived SRS state) the steady-state number should not include.
	Warmup int
	// Reps is the number of measured iterations.
	Reps int
	// Log, when non-nil, receives one progress line per benchmark.
	Log func(format string, args ...any)
}

// run executes one group of benchmarks and returns their records. The
// group's benchmarks are set up together and then take turns, one
// iteration each, so a change in the machine's speed during the run (a
// neighbour taking the sibling hyperthread slows a core by 1.6–2× for
// seconds at a time on a shared 2-vCPU box) lands on every record a gate
// compares rather than on one side of it.
func (r *runner) run(group []benchmark) ([]record, error) {
	reps := max(r.Reps, 1)
	warmup := max(r.Warmup, 0)
	for _, bm := range group {
		if bm.Iterate == nil {
			return nil, fmt.Errorf("bench: %s has no Iterate", bm.Name)
		}
	}
	for _, bm := range group {
		if bm.Setup != nil {
			if err := bm.Setup(); err != nil {
				return nil, fmt.Errorf("bench: %s setup: %w", bm.Name, err)
			}
		}
		if bm.Teardown != nil {
			defer bm.Teardown()
		}
	}
	samples := make([][]time.Duration, len(group))
	for i := 0; i < warmup+reps; i++ {
		for j, bm := range group {
			if bm.Before != nil {
				if err := bm.Before(); err != nil {
					return nil, fmt.Errorf("bench: %s before: %w", bm.Name, err)
				}
			}
			t0 := time.Now()
			if err := bm.Iterate(); err != nil {
				return nil, fmt.Errorf("bench: %s: %w", bm.Name, err)
			}
			if d := time.Since(t0); i >= warmup {
				samples[j] = append(samples[j], d)
			}
		}
	}
	recs := make([]record, len(group))
	for j, bm := range group {
		recs[j] = record{Name: bm.Name, Reps: reps}
		recs[j].Median, recs[j].P95 = summarize(samples[j])
		if r.Log != nil {
			r.Log("%-40s median %12v  p95 %12v  (%d reps)", bm.Name, recs[j].Median, recs[j].P95, reps)
		}
	}
	return recs, nil
}

// runAll executes the groups in order and returns their records.
func (r *runner) runAll(groups [][]benchmark) ([]record, error) {
	var recs []record
	for _, g := range groups {
		rs, err := r.run(g)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rs...)
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
