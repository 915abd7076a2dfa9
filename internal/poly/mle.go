// Package poly implements multilinear polynomials in evaluation (MLE table)
// form — the core data structure of HyperPlonk (§2.3) — together with the
// tree-structured kernels zkSpeed's Multifunction Tree Unit accelerates
// (§4.3: Build MLE, MLE Evaluate, Product MLE) and the Montgomery batch
// inversion behind the Fraction MLE (§4.4).
//
// Index convention: the table index encodes x_1 in bit 0 (LSB). SumCheck
// binds x_1 first, so fixing a variable maps
// t'[i] = t[2i] + r·(t[2i+1] - t[2i])  (Eq. 2 of the paper).
package poly

import (
	"fmt"
	"math/bits"

	"zkspeed/internal/ff"
)

// MLE is a multilinear polynomial over {0,1}^NumVars stored as its 2^NumVars
// evaluations.
type MLE struct {
	NumVars int
	Evals   []ff.Fr
}

// NewMLE wraps evals (length must be a power of two) as an MLE.
func NewMLE(evals []ff.Fr) *MLE {
	n := len(evals)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("poly: MLE length %d is not a power of two", n))
	}
	return &MLE{NumVars: bits.TrailingZeros(uint(n)), Evals: evals}
}

// NewZeroMLE returns the all-zero MLE over numVars variables.
func NewZeroMLE(numVars int) *MLE {
	return &MLE{NumVars: numVars, Evals: make([]ff.Fr, 1<<numVars)}
}

// Clone deep-copies the MLE.
func (m *MLE) Clone() *MLE {
	e := make([]ff.Fr, len(m.Evals))
	copy(e, m.Evals)
	return &MLE{NumVars: m.NumVars, Evals: e}
}

// Len returns the table size 2^NumVars.
func (m *MLE) Len() int { return len(m.Evals) }

// FixVariable binds x_1 := r, halving the table (the MLE Update kernel).
// The receiver is mutated in place and returned.
func (m *MLE) FixVariable(r *ff.Fr) *MLE {
	half := len(m.Evals) / 2
	var d ff.Fr
	for i := 0; i < half; i++ {
		d.Sub(&m.Evals[2*i+1], &m.Evals[2*i])
		d.Mul(&d, r)
		m.Evals[i].Add(&m.Evals[2*i], &d)
	}
	m.Evals = m.Evals[:half]
	m.NumVars--
	return m
}

// FixVariableWith is FixVariable under an explicit kernel configuration:
// the fold is chunked across opts.Procs goroutines (the multi-lane MLE
// Update unit of §4.3). Because the in-place update reads indices a
// concurrent chunk writes, the parallel path folds into an arena buffer
// and copies back — the copy is cheap next to the per-pair field
// multiplication. Results are identical to FixVariable for any Options.
func (m *MLE) FixVariableWith(r *ff.Fr, opts Options) *MLE {
	half := len(m.Evals) / 2
	nw := opts.Workers()
	if nw <= 1 || half < 2*minParallelWork {
		return m.FixVariable(r)
	}
	arena := opts.Arena()
	out := arena.Get(half)
	src := m.Evals
	ParallelRange(half, opts, func(lo, hi int) {
		foldRange(out, src, r, lo, hi)
	})
	copy(m.Evals[:half], out)
	arena.Put(out)
	m.Evals = m.Evals[:half]
	m.NumVars--
	return m
}

// foldRange applies the Eq. 2 update out[i] = src[2i] + r·(src[2i+1]-src[2i])
// for i in [lo, hi). out and src must not alias unless out[i] only ever
// lands on already-consumed src entries (the serial in-place case).
func foldRange(out, src []ff.Fr, r *ff.Fr, lo, hi int) {
	var d ff.Fr
	for i := lo; i < hi; i++ {
		d.Sub(&src[2*i+1], &src[2*i])
		d.Mul(&d, r)
		out[i].Add(&src[2*i], &d)
	}
}

// Evaluate computes m(point) by folding one variable at a time; point must
// have NumVars entries. The input table is not modified.
func (m *MLE) Evaluate(point []ff.Fr) ff.Fr {
	if len(point) != m.NumVars {
		panic(fmt.Sprintf("poly: evaluate with %d coords on %d-var MLE", len(point), m.NumVars))
	}
	if m.NumVars == 0 {
		return m.Evals[0]
	}
	work := make([]ff.Fr, len(m.Evals))
	copy(work, m.Evals)
	var d ff.Fr
	for v := 0; v < m.NumVars; v++ {
		half := len(work) / 2
		r := &point[v]
		for i := 0; i < half; i++ {
			d.Sub(&work[2*i+1], &work[2*i])
			d.Mul(&d, r)
			work[i].Add(&work[2*i], &d)
		}
		work = work[:half]
	}
	return work[0]
}

// EvaluateWith is Evaluate under an explicit kernel configuration. The
// fold chain runs in arena buffers instead of cloning the full table
// (steady state allocates nothing) and the early, large folds are
// chunked across goroutines. Identical to Evaluate for any Options.
func (m *MLE) EvaluateWith(point []ff.Fr, opts Options) ff.Fr {
	if len(point) != m.NumVars {
		panic(fmt.Sprintf("poly: evaluate with %d coords on %d-var MLE", len(point), m.NumVars))
	}
	if m.NumVars == 0 {
		return m.Evals[0]
	}
	arena := opts.Arena()
	half := len(m.Evals) / 2
	// First fold reads the (immutable) input table and writes an arena
	// buffer — out-of-place, so it can be chunked freely. first is never
	// reassigned, so the closure captures it by value (no heap cell).
	first := arena.Get(half)
	r := &point[0]
	src0 := m.Evals
	ParallelRange(half, opts, func(lo, hi int) {
		foldRange(first, src0, r, lo, hi)
	})
	cur := first
	// Remaining folds ping-pong between two arena buffers while the
	// tables are large enough to chunk, then finish in place serially
	// (the in-place update only reads indices the same iteration has not
	// yet written, which a single goroutine preserves).
	var spare []ff.Fr
	for v := 1; v < m.NumVars; v++ {
		half = len(cur) / 2
		r := &point[v]
		if opts.Workers() > 1 && half >= 2*minParallelWork {
			if spare == nil {
				spare = arena.Get(half)
			}
			dst, src := spare[:half], cur
			ParallelRange(half, opts, func(lo, hi int) {
				foldRange(dst, src, r, lo, hi)
			})
			cur, spare = dst, src
		} else {
			foldRange(cur, cur, r, 0, half)
			cur = cur[:half]
		}
	}
	out := cur[0]
	arena.Put(cur)
	if spare != nil {
		arena.Put(spare)
	}
	return out
}

// EqTable builds the MLE table of eq(X, point): the "Build MLE" kernel
// (§3.3.2, the r(X) polynomial). eq(x, p) = Π_j (x_j p_j + (1-x_j)(1-p_j)).
// Built with 2^{μ+1}-4 multiplications via the binary-tree schedule the
// Multifunction Tree Unit implements.
func EqTable(point []ff.Fr) *MLE {
	return EqTableWith(point, Options{Procs: 1})
}

// EqTableWith is EqTable under an explicit kernel configuration (see
// EqTableInto). Identical output to EqTable for any Options.
func EqTableWith(point []ff.Fr, opts Options) *MLE {
	table := make([]ff.Fr, 1<<len(point))
	EqTableInto(table, point, opts)
	return &MLE{NumVars: len(point), Evals: table}
}

// EqTableInto writes the eq(X, point) table into dst, which must hold
// 2^len(point) entries — the form callers with an arena buffer use. Each
// doubling layer of the binary-tree schedule is chunked across goroutines
// once the layer is wide enough (every entry i reads and writes only
// table[i] and table[i+size], so entries are independent within a layer).
func EqTableInto(dst, point []ff.Fr, opts Options) {
	if len(dst) != 1<<len(point) {
		panic(fmt.Sprintf("poly: eq table of %d coords into %d entries", len(point), len(dst)))
	}
	dst[0].SetOne()
	serial := opts.Workers() <= 1 || len(dst) < 4*minParallelWork
	for j, size := 0, 1; j < len(point); j, size = j+1, size<<1 {
		rj := &point[j]
		if serial {
			eqLayer(dst, rj, size, 0, size) // no closure: small tables allocate nothing
			continue
		}
		ParallelRange(size, opts, func(lo, hi int) {
			eqLayer(dst, rj, size, lo, hi)
		})
	}
}

// eqLayer appends variable j+1 as the current MSB (index bit size = 2^j)
// for entries [lo, hi): each splits into (1-r)·t and r·t, the product
// computed once and the complement derived by subtraction (footnote 3 of
// the paper: (1-r1)(1-r2) = (1-r1) - (1-r1)r2).
func eqLayer(dst []ff.Fr, r *ff.Fr, size, lo, hi int) {
	var hiP ff.Fr
	for i := lo; i < hi; i++ {
		hiP.Mul(&dst[i], r)
		dst[i+size] = hiP
		dst[i].Sub(&dst[i], &hiP)
	}
}

// EvalEq evaluates eq(a, b) for two points of equal length in O(μ).
func EvalEq(a, b []ff.Fr) ff.Fr {
	if len(a) != len(b) {
		panic("poly: EvalEq length mismatch")
	}
	var acc, t, u, one ff.Fr
	acc.SetOne()
	one.SetOne()
	for i := range a {
		// a·b + (1-a)(1-b) = 2ab - a - b + 1
		t.Mul(&a[i], &b[i])
		t.Double(&t)
		u.Add(&a[i], &b[i])
		t.Sub(&t, &u)
		t.Add(&t, &one)
		acc.Mul(&acc, &t)
	}
	return acc
}

// IdentityMLE returns the MLE of f(x) = offset + Σ_j 2^{j-1} x_j — the wire
// identity polynomials id_1..id_3 of the PermutationCheck. The verifier can
// evaluate it in O(μ) via EvalIdentity without the table.
func IdentityMLE(numVars int, offset uint64) *MLE {
	evals := make([]ff.Fr, 1<<numVars)
	for i := range evals {
		evals[i].SetUint64(offset + uint64(i))
	}
	return &MLE{NumVars: numVars, Evals: evals}
}

// EvalIdentity evaluates IdentityMLE(len(point), offset) at point in O(μ).
func EvalIdentity(point []ff.Fr, offset uint64) ff.Fr {
	var acc, t ff.Fr
	acc.SetUint64(offset)
	for j := range point {
		t.SetUint64(1 << uint(j))
		t.Mul(&t, &point[j])
		acc.Add(&acc, &t)
	}
	return acc
}

// Affine is the MLE W + Scale·S + Shift, with S the identity MLE
// IdentityMLE(·, Offset) when nil — the wire factors N_j = w_j + β·id_j + γ
// and D_j = w_j + β·σ_j + γ the Construct N&D unit streams (§4.4.1). Its
// entries are formed on demand (At), so the table need never be stored;
// MLE materializes it for consumers that want one.
type Affine struct {
	W      *MLE
	Scale  ff.Fr
	S      *MLE
	Offset uint64
	Shift  ff.Fr
}

// At sets out to entry i.
func (a *Affine) At(i int, out *ff.Fr) {
	var t ff.Fr
	if a.S != nil {
		t.Mul(&a.Scale, &a.S.Evals[i])
	} else {
		t.SetUint64(a.Offset + uint64(i))
		t.Mul(&a.Scale, &t)
	}
	out.Add(&a.W.Evals[i], &t)
	out.Add(out, &a.Shift)
}

// MLE materializes the table.
func (a *Affine) MLE() *MLE {
	out := make([]ff.Fr, len(a.W.Evals))
	for i := range out {
		a.At(i, &out[i])
	}
	return &MLE{NumVars: a.W.NumVars, Evals: out}
}

// Add returns the elementwise sum of a and b as a new MLE.
func Add(a, b *MLE) *MLE {
	if a.NumVars != b.NumVars {
		panic("poly: Add dimension mismatch")
	}
	out := make([]ff.Fr, len(a.Evals))
	for i := range out {
		out[i].Add(&a.Evals[i], &b.Evals[i])
	}
	return &MLE{NumVars: a.NumVars, Evals: out}
}

// LinearCombine returns Σ coeffs[k]·mles[k] — the MLE Combine kernel
// (§4.5). All inputs must share the same variable count.
func LinearCombine(mles []*MLE, coeffs []ff.Fr) *MLE {
	if len(mles) == 0 || len(mles) != len(coeffs) {
		panic("poly: LinearCombine size mismatch")
	}
	nv := mles[0].NumVars
	out := make([]ff.Fr, 1<<nv)
	var t ff.Fr
	for k, m := range mles {
		if m.NumVars != nv {
			panic("poly: LinearCombine dimension mismatch")
		}
		c := &coeffs[k]
		for i := range out {
			t.Mul(&m.Evals[i], c)
			out[i].Add(&out[i], &t)
		}
	}
	return &MLE{NumVars: nv, Evals: out}
}

// LinearCombineWith is LinearCombine under an explicit kernel
// configuration: the output range is chunked across goroutines, each
// chunk walking the inputs in the same k-order as the serial kernel.
// Identical output to LinearCombine for any Options.
func LinearCombineWith(mles []*MLE, coeffs []ff.Fr, opts Options) *MLE {
	if len(mles) == 0 || len(mles) != len(coeffs) {
		panic("poly: LinearCombine size mismatch")
	}
	nv := mles[0].NumVars
	for _, m := range mles {
		if m.NumVars != nv {
			panic("poly: LinearCombine dimension mismatch")
		}
	}
	if opts.Workers() <= 1 || 1<<nv < 2*minParallelWork {
		return LinearCombine(mles, coeffs)
	}
	out := make([]ff.Fr, 1<<nv)
	ParallelRange(len(out), opts, func(lo, hi int) {
		var t ff.Fr
		for k, m := range mles {
			c := &coeffs[k]
			for i := lo; i < hi; i++ {
				t.Mul(&m.Evals[i], c)
				out[i].Add(&out[i], &t)
			}
		}
	})
	return &MLE{NumVars: nv, Evals: out}
}

// ScalarMul returns c·m as a new MLE.
func ScalarMul(m *MLE, c *ff.Fr) *MLE {
	out := make([]ff.Fr, len(m.Evals))
	for i := range out {
		out[i].Mul(&m.Evals[i], c)
	}
	return &MLE{NumVars: m.NumVars, Evals: out}
}
