package poly

import (
	"math/bits"
	"runtime"
	"sync"

	"zkspeed/internal/ff"
)

// Options is the execution context of a proof: Procs bounds goroutine
// fan-out and Scratch supplies reusable field-element buffers so
// steady-state kernel invocations allocate nothing. The parallel MTU
// kernels here (the *With entry points), sumcheck.ProveWith, the pcs.PCS
// *With methods and the prover and verifier options all take this one
// value, which the Engine fills from WithParallelism and its arena.
//
// The zero value is the sensible default: one goroutine per CPU and the
// package-level shared arena. Every kernel produces values identical to
// its serial counterpart for any Options — field arithmetic is exact, so
// chunked schedules cannot perturb results — which is what keeps proofs
// byte-identical across serial and parallel paths.
type Options struct {
	// Procs bounds the number of goroutines a kernel may use; a value
	// ≤ 0 means GOMAXPROCS, 1 forces the serial path.
	Procs int
	// Scratch is the arena temporary tables are drawn from; nil uses a
	// package-level shared arena. Callers running many proofs (the
	// Engine) pass their own so buffers stay warm across proofs.
	Scratch *Scratch
}

// Workers resolves the goroutine budget: Procs, or GOMAXPROCS when Procs
// is not positive. msm.Options resolves its own Procs by the same rule.
func (o Options) Workers() int {
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// Arena resolves the scratch arena: Scratch, or the shared one when nil.
func (o Options) Arena() *Scratch {
	if o.Scratch != nil {
		return o.Scratch
	}
	return defaultScratch
}

// minParallelWork is the smallest per-goroutine slice of a table worth a
// dispatch: below this the spawn/synchronization overhead outweighs the
// field work (~256 muls ≈ 15µs vs ~2µs per goroutine).
const minParallelWork = 256

// Scratch is a sync.Pool-backed arena of field-element buffers — the
// software analogue of the MTU's fixed on-chip SRAM: kernels borrow a
// table, use it, and return it, so a steady stream of proofs touches the
// allocator only while the pool warms up. Buffers are bucketed by
// power-of-two capacity (MLE tables are power-of-two sized), so a Get
// never discards a pooled buffer as too small, and slice headers ride in
// a shared box freelist — steady state, Get and Put allocate nothing.
//
// A Scratch is safe for concurrent use. Buffer contents are unspecified
// on Get; callers must overwrite before reading.
type Scratch struct {
	classes [scratchClasses]sync.Pool
}

// scratchClasses bounds the size-class ladder at 2^40 elements — far
// beyond any table this process can hold.
const scratchClasses = 40

// NewScratch returns an empty arena.
func NewScratch() *Scratch {
	return &Scratch{}
}

// defaultScratch serves Options with a nil Scratch.
var defaultScratch = NewScratch()

// boxes recycles the *[]ff.Fr headers Put would otherwise allocate.
var boxes sync.Pool

// Get borrows a buffer of length n (contents unspecified).
func (s *Scratch) Get(n int) []ff.Fr {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // ceil log2: every buffer in class c has cap >= 2^c >= n
	if v, ok := s.classes[c].Get().(*[]ff.Fr); ok {
		buf := *v
		*v = nil
		boxes.Put(v)
		return buf[:n]
	}
	return make([]ff.Fr, n, 1<<c)
}

// Put returns a buffer to the arena. The caller must not retain any
// alias of buf afterwards.
func (s *Scratch) Put(buf []ff.Fr) {
	if cap(buf) == 0 {
		return
	}
	c := bits.Len(uint(cap(buf))) - 1 // floor log2: cap >= 2^c holds
	v, ok := boxes.Get().(*[]ff.Fr)
	if !ok {
		v = new([]ff.Fr)
	}
	*v = buf[:0]
	s.classes[c].Put(v)
}

// ParallelRange splits [0, n) into one contiguous chunk per goroutine
// (at most opts.Workers(), and never more than n/minParallelWork) and runs
// fn on each concurrently, returning when all chunks finish. fn's writes
// must be disjoint per index; with exact field arithmetic the chunking
// cannot change results, only wall-clock. procs <= 1 (or a small n) runs
// fn(0, n) inline on the calling goroutine — the serial path costs no
// goroutine and no allocation.
func ParallelRange(n int, opts Options, fn func(lo, hi int)) {
	parallelRangeMin(n, minParallelWork, opts, fn)
}

// parallelRangeMin is ParallelRange with an explicit minimum number of
// items per goroutine, for callers whose per-item work is much heavier
// than a field multiplication (e.g. a whole inversion batch per item).
func parallelRangeMin(n, minWork int, opts Options, fn func(lo, hi int)) {
	nw := opts.Workers()
	if max := n / minWork; nw > max {
		nw = max
	}
	if nw <= 1 || n < 2 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	chunk := (n + nw - 1) / nw
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
