// Package par holds the one goroutine budget rule and the two fan-out
// loops every kernel below the Engine runs on. A budget names how many
// goroutines one call may keep busy; Procs resolves it, Range deals
// contiguous chunks of an index range to that many goroutines, and Each
// hands indices out one at a time to goroutines that each set up their
// own state once. With one worker, or too little work for two, both
// loops run on the calling goroutine and start nothing.
//
// With more, every chunk and every worker gets a goroutine of its own
// and the caller waits. A caller that kept a chunk for itself would
// leave the goroutine it just started in its P's run-next slot, which
// an idle P steals last; on two cores a fan-out of two 100 µs chunks
// then took 205–210 µs, against 150–160 µs with the caller waiting
// (Go 1.24, 2 vCPUs).
package par

import (
	"runtime"
	"sync"
)

// Procs resolves a goroutine budget: procs when positive, GOMAXPROCS
// otherwise.
func Procs(procs int) int {
	if procs > 0 {
		return procs
	}
	return runtime.GOMAXPROCS(0)
}

// Range splits [0, n) into at most workers contiguous chunks of
// ⌈n/workers⌉ indices and runs fn once on each, returning when every
// chunk is done. fn's writes must be disjoint per index. workers ≤ 1 or
// n < 2 runs fn(0, n) inline; n ≤ 0 runs nothing.
func Range(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers = min(workers, n); workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// Each runs fn(s, i) once for every i in [0, n) on at most workers
// goroutines. Each worker takes the next index as it finishes the last,
// so uneven items balance, and calls setup once before its first index
// to make the state s it passes to every fn call it runs; a nil setup
// passes the zero S. workers ≤ 1 or n < 2 runs every index in order on
// the calling goroutine.
func Each[S any](n, workers int, setup func() S, fn func(s S, i int)) {
	if n <= 0 {
		return
	}
	if workers = min(workers, n); workers <= 1 {
		s := state(setup)
		for i := range n {
			fn(s, i)
		}
		return
	}
	var mu sync.Mutex
	next := 0
	work := func() {
		s := state(setup)
		for {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			if i >= n {
				return
			}
			fn(s, i)
		}
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// state returns setup(), or the zero S when setup is nil.
func state[S any](setup func() S) (s S) {
	if setup != nil {
		s = setup()
	}
	return s
}
