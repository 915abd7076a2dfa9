package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestProcs pins the one budget rule: a positive budget is taken as
// given, anything else means GOMAXPROCS.
func TestProcs(t *testing.T) {
	for _, procs := range []int{-1, 0, 1, 3, 64} {
		want := procs
		if procs <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		if got := Procs(procs); got != want {
			t.Errorf("Procs(%d) = %d, want %d", procs, got, want)
		}
	}
}

// sizes covers n = 0, n = 1, n below, at and above the worker counts,
// and n that the chunk size does not divide.
var sizes = []int{0, 1, 2, 3, 5, 7, 8, 64, 1000}

var workerCounts = []int{-1, 0, 1, 2, 3, 4, 8}

// TestRangeCoversOnce runs every (n, workers) pair and checks that the
// chunks cover [0, n) exactly once and number at most workers; with
// several goroutines writing one counter per index, an overlap shows
// under -race or in the counts.
func TestRangeCoversOnce(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workerCounts {
			hits := make([]int32, n)
			var chunks atomic.Int32
			Range(n, w, func(lo, hi int) {
				chunks.Add(1)
				if lo >= hi {
					t.Errorf("n=%d workers=%d: empty chunk [%d, %d)", n, w, lo, hi)
				}
				for i := lo; i < hi; i++ {
					hits[i]++
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, w, i, h)
				}
			}
			if got, limit := int(chunks.Load()), max(w, 1); n > 0 && got > limit {
				t.Errorf("n=%d workers=%d: %d chunks", n, w, got)
			}
			if n == 0 && chunks.Load() != 0 {
				t.Errorf("n=0 workers=%d: fn ran", w)
			}
		}
	}
}

// TestRangeCallerWaits pins the schedule the package comment gives the
// reason for: with more than one worker no chunk runs on the calling
// goroutine, whose stack holds this test's frame.
func TestRangeCallerWaits(t *testing.T) {
	var onCaller [4]bool
	Range(4, 4, func(lo, _ int) {
		onCaller[lo] = onStack("TestRangeCallerWaits")
	})
	if onCaller != [4]bool{} {
		t.Fatalf("chunks on the caller: %v, want none", onCaller)
	}
}

// onStack reports whether the calling goroutine's stack holds a function
// whose name ends in fn.
func onStack(fn string) bool {
	pcs := make([]uintptr, 64)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "."+fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestEachRunsEveryIndexOnce checks every index runs exactly once and
// setup runs once per worker, never more than the worker count and
// never more than n.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workerCounts {
			hits := make([]int32, n)
			var setups atomic.Int32
			type worker struct{ id int32 }
			var mu sync.Mutex
			seen := map[int32]bool{}
			Each(n, w, func() *worker {
				return &worker{id: setups.Add(1)}
			}, func(s *worker, i int) {
				mu.Lock()
				seen[s.id] = true
				mu.Unlock()
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, w, i, h)
				}
			}
			if got, limit := int(setups.Load()), min(max(w, 1), n); got > limit {
				t.Errorf("n=%d workers=%d: setup ran %d times, want ≤ %d", n, w, got, limit)
			}
			if int(setups.Load()) < len(seen) {
				t.Errorf("n=%d workers=%d: %d states used, %d set up", n, w, len(seen), setups.Load())
			}
		}
	}
}

// TestEachSetupOncePerWorker holds every worker inside its first index
// until all of them have started, so each of the workers must have set
// up its own state exactly once.
func TestEachSetupOncePerWorker(t *testing.T) {
	const workers = 4
	var setups atomic.Int32
	var started sync.WaitGroup
	started.Add(workers)
	perState := map[*int]int{}
	var mu sync.Mutex
	Each(64, workers, func() *int {
		setups.Add(1)
		return new(int)
	}, func(s *int, i int) {
		if *s == 0 {
			started.Done()
			started.Wait()
		}
		*s++
		mu.Lock()
		perState[s]++
		mu.Unlock()
	})
	if setups.Load() != workers || len(perState) != workers {
		t.Fatalf("%d setups and %d states for %d workers", setups.Load(), len(perState), workers)
	}
	for s, runs := range perState {
		if *s != runs {
			t.Fatalf("a state saw %d indices, counted %d", *s, runs)
		}
	}
}

// TestEachNilSetup passes the zero state when setup is nil.
func TestEachNilSetup(t *testing.T) {
	var sum atomic.Int64
	Each(10, 3, nil, func(s int, i int) {
		if s != 0 {
			t.Errorf("state %d, want 0", s)
		}
		sum.Add(int64(i))
	})
	if sum.Load() != 45 {
		t.Fatalf("sum %d, want 45", sum.Load())
	}
}

// TestOneWorkerIsInline: with one worker (or n = 1 under any budget) both
// loops run on the caller, start no goroutine and allocate nothing.
func TestOneWorkerIsInline(t *testing.T) {
	var peak int
	probe := func() {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
	}
	rangeFn := func(int, int) { probe() }
	eachFn := func(int, int) { probe() }
	setup := func() int { return 1 }
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Range/workers=1", func() { Range(1000, 1, rangeFn) }},
		{"Range/n=1", func() { Range(1, 8, rangeFn) }},
		{"Each/workers=1", func() { Each(1000, 1, setup, eachFn) }},
		{"Each/n=1", func() { Each(1, 8, setup, eachFn) }},
		{"Each/nil-setup", func() { Each(1000, 1, nil, eachFn) }},
	} {
		before := runtime.NumGoroutine()
		peak = 0
		c.run()
		if peak != before {
			t.Errorf("%s: %d goroutines inside the loop, %d before", c.name, peak, before)
		}
		if a := testing.AllocsPerRun(100, c.run); a != 0 {
			t.Errorf("%s: %v allocations, want 0", c.name, a)
		}
	}
}
