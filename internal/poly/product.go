package poly

import "zkspeed/internal/ff"

// ProductMLE builds the Product MLE π from the Fraction MLE φ (§3.3.3).
//
// Following the Quarks-style grand-product layout, define the (μ+1)-variable
// table v = φ ‖ π (π occupying the MSB=1 half). π is the binary product
// tree over φ flattened layer by layer:
//
//	π[i]        = v[2i]·v[2i+1]   for i < 2^μ - 1
//	π[2^μ - 1]  = 0               (breaks the final self-reference)
//
// The grand product Π φ[i] lands at index 2^μ-2, i.e. the hypercube point
// (0,1,1,…,1) in the LSB-first convention. The zkSpeed Multifunction Tree
// Unit streams exactly this computation, emitting every tree layer (Fig. 3).
func ProductMLE(phi *MLE) *MLE {
	n := phi.Len()
	pi := make([]ff.Fr, n)
	if n == 1 {
		// Degenerate single-entry cube: π = [0]; grand product is φ[0].
		return &MLE{NumVars: 0, Evals: pi}
	}
	half := n / 2
	// Layer 1: products of φ pairs.
	for i := 0; i < half; i++ {
		pi[i].Mul(&phi.Evals[2*i], &phi.Evals[2*i+1])
	}
	// Remaining layers: products of earlier π pairs.
	for i := half; i < n-1; i++ {
		j := i - half
		pi[i].Mul(&pi[2*j], &pi[2*j+1])
	}
	pi[n-1].SetZero()
	return &MLE{NumVars: phi.NumVars, Evals: pi}
}

// ProductMLEWith is ProductMLE under an explicit kernel configuration:
// every tree layer is chunked across goroutines with a barrier between
// layers (a node only reads the layer below it), exactly the
// layer-by-layer streaming schedule of the Multifunction Tree Unit
// (Fig. 3). Narrow top layers run serially — they are smaller than the
// dispatch overhead. Identical output to ProductMLE for any Options.
func ProductMLEWith(phi *MLE, opts Options) *MLE {
	n := phi.Len()
	if opts.Workers() <= 1 || n < 4*minParallelWork {
		return ProductMLE(phi)
	}
	pi := make([]ff.Fr, n)
	half := n / 2
	// Layer 1: products of φ pairs.
	ParallelRange(half, opts, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pi[i].Mul(&phi.Evals[2*i], &phi.Evals[2*i+1])
		}
	})
	// Remaining layers: layer l occupies [start, start+width) and reads
	// the previous layer at [2(start-half), …).
	for start, width := half, half/2; width >= 1; start, width = start+width, width/2 {
		ParallelRange(width, opts, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i := start + k
				j := i - half
				pi[i].Mul(&pi[2*j], &pi[2*j+1])
			}
		})
	}
	pi[n-1].SetZero()
	return &MLE{NumVars: phi.NumVars, Evals: pi}
}

// GrandProduct returns the product of all evaluations of m.
func GrandProduct(m *MLE) ff.Fr {
	var acc ff.Fr
	acc.SetOne()
	for i := range m.Evals {
		acc.Mul(&acc, &m.Evals[i])
	}
	return acc
}

// ProductRootPoint returns the hypercube point (0,1,…,1) of index 2^μ-2
// where the grand product is exposed, for use as a fixed opening point.
func ProductRootPoint(numVars int) []ff.Fr {
	pt := make([]ff.Fr, numVars)
	for i := 1; i < numVars; i++ {
		pt[i].SetOne()
	}
	return pt
}

// ProductSides returns the p1 and p2 MLEs of the product-check constraint
// π(x) = p1(x)·p2(x): p1(y) = v(0,y) and p2(y) = v(1,y) where v = φ ‖ π.
// In table form p1[i] = v[2i] and p2[i] = v[2i+1]: the low half of each
// side deinterleaves φ and the high half π, written straight from the two
// tables (v itself is never stored).
func ProductSides(phi, pi *MLE) (p1, p2 *MLE) {
	n := phi.Len()
	e1 := make([]ff.Fr, n)
	e2 := make([]ff.Fr, n)
	if n == 1 {
		e1[0], e2[0] = phi.Evals[0], pi.Evals[0]
	} else {
		h := n / 2
		deinterleave(e1[:h], e2[:h], phi.Evals)
		deinterleave(e1[h:], e2[h:], pi.Evals)
	}
	return &MLE{NumVars: phi.NumVars, Evals: e1}, &MLE{NumVars: phi.NumVars, Evals: e2}
}

// deinterleave sets even[i] = src[2i] and odd[i] = src[2i+1].
func deinterleave(even, odd, src []ff.Fr) {
	for i := range even {
		even[i] = src[2*i]
		odd[i] = src[2*i+1]
	}
}

// MergeEval evaluates the merged polynomial v = φ ‖ π (μ+1 variables, π on
// the MSB half) at a point given the evaluations of φ and π at the point's
// first μ coordinates: v(y, b) = (1-b)·φ(y) + b·π(y).
func MergeEval(phiEval, piEval, msb *ff.Fr) ff.Fr {
	var out, t, oneMinus, one ff.Fr
	one.SetOne()
	oneMinus.Sub(&one, msb)
	out.Mul(&oneMinus, phiEval)
	t.Mul(msb, piEval)
	out.Add(&out, &t)
	return out
}
