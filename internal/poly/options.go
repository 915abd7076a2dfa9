package poly

import (
	"math/bits"
	"sync"

	"zkspeed/internal/ff"
	"zkspeed/internal/par"
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

// Workers resolves the goroutine budget by par.Procs: Procs, or
// GOMAXPROCS when Procs is not positive.
func (o Options) Workers() int {
	return par.Procs(o.Procs)
}

// WorkersFor is the number of par.Range workers a pass over n table
// entries is worth: Workers(), but never fewer than minParallelWork
// entries to a worker.
func (o Options) WorkersFor(n int) int {
	return min(o.Workers(), n/minParallelWork)
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
