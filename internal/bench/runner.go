package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Benchmark is one measurable unit of the suite. All hooks run on the
// runner's goroutine, strictly sequentially, so closures may share state
// (e.g. a lazily derived SRS) without locking.
type Benchmark struct {
	// Name is the stable identifier -run filters and -assert-faster gates
	// match on (e.g. "msm/pippenger/n10/w8/grouped"). Renaming a benchmark
	// breaks every gate that names it, so treat names as part of the API.
	Name string
	// Kind is KindKernel or KindE2E.
	Kind string
	// Params documents the benchmark's knobs in the record.
	Params map[string]string
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

// Runner executes benchmarks with warmup and repetition.
type Runner struct {
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

// Run executes one benchmark and returns its record.
func (r *Runner) Run(bm Benchmark) (Record, error) {
	reps := r.Reps
	if reps < 1 {
		reps = 1
	}
	warmup := r.Warmup
	if warmup < 0 {
		warmup = 0
	}
	if bm.Iterate == nil {
		return Record{}, fmt.Errorf("bench: %s has no Iterate", bm.Name)
	}
	if bm.Setup != nil {
		if err := bm.Setup(); err != nil {
			return Record{}, fmt.Errorf("bench: %s setup: %w", bm.Name, err)
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
				return Record{}, fmt.Errorf("bench: %s before: %w", bm.Name, err)
			}
		}
		t0 := time.Now()
		if err := bm.Iterate(); err != nil {
			return Record{}, fmt.Errorf("bench: %s: %w", bm.Name, err)
		}
		if d := time.Since(t0); i >= warmup {
			samples = append(samples, d)
		}
	}
	rec := Record{
		Name:   bm.Name,
		Kind:   bm.Kind,
		Params: bm.Params,
		Reps:   reps,
		Stats:  Summarize(samples),
		RawNS:  make([]int64, len(samples)),
	}
	for i, d := range samples {
		rec.RawNS[i] = d.Nanoseconds()
	}
	if bm.Steps != nil {
		if steps := bm.Steps(); len(steps) > 0 {
			rec.StepsNS = make(map[string]int64, len(steps))
			for k, v := range steps {
				rec.StepsNS[k] = v.Nanoseconds()
			}
		}
	}
	if r.Log != nil {
		r.Log("%-40s median %12v  p95 %12v  (%d reps)",
			rec.Name, time.Duration(rec.Stats.MedianNS), time.Duration(rec.Stats.P95NS), reps)
		if len(rec.StepsNS) > 0 {
			r.Log("%-40s steps %s", "", stepShares(rec.StepsNS))
		}
	}
	return rec, nil
}

// RunAll executes the benchmarks in order and returns their records.
func (r *Runner) RunAll(bms []Benchmark) ([]Record, error) {
	recs := make([]Record, 0, len(bms))
	for _, bm := range bms {
		rec, err := r.Run(bm)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// stepShares renders a step decomposition as percentages of its total,
// largest first (ties by name, so the line is stable).
func stepShares(steps map[string]int64) string {
	names := make([]string, 0, len(steps))
	var total int64
	for k, v := range steps {
		names = append(names, k)
		total += v
	}
	sort.Slice(names, func(i, j int) bool {
		if steps[names[i]] != steps[names[j]] {
			return steps[names[i]] > steps[names[j]]
		}
		return names[i] < names[j]
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
