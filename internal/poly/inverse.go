package poly

import (
	"zkspeed/internal/ff"
	"zkspeed/internal/par"
)

// BatchInverse inverts every element of xs using Montgomery batching
// (§4.4.2): one modular inversion amortized over len(xs) elements via
// sequential partial products. Zero entries are passed through as zero
// (and excluded from the batch). Returns a new slice.
func BatchInverse(xs []ff.Fr) []ff.Fr {
	out := make([]ff.Fr, len(xs))
	// partial[i] holds the running product of the first i nonzero inputs.
	partial := make([]ff.Fr, 0, len(xs)+1)
	var acc ff.Fr
	acc.SetOne()
	partial = append(partial, acc)
	idx := make([]int, 0, len(xs))
	for i := range xs {
		if xs[i].IsZero() {
			continue
		}
		acc.Mul(&acc, &xs[i])
		partial = append(partial, acc)
		idx = append(idx, i)
	}
	var inv ff.Fr
	inv.Inverse(&acc)
	for k := len(idx) - 1; k >= 0; k-- {
		i := idx[k]
		out[i].Mul(&inv, &partial[k])
		inv.Mul(&inv, &xs[i])
	}
	return out
}

// BatchInverseTree inverts every element of xs using the multiplier-tree
// batching zkSpeed's FracMLE unit implements (§4.4.2–4.4.3): inputs are
// split into batches of size batch; each batch's product is computed with a
// binary multiplier tree (O(log b) depth instead of the O(b) sequential
// chain), inverted once, and the individual inverses are recovered from the
// tree's internal partial products. Functionally identical to BatchInverse.
func BatchInverseTree(xs []ff.Fr, batch int) []ff.Fr {
	if batch < 1 {
		panic("poly: batch size must be >= 1")
	}
	out := make([]ff.Fr, len(xs))
	for start := 0; start < len(xs); start += batch {
		end := start + batch
		if end > len(xs) {
			end = len(xs)
		}
		invertBatchTree(xs[start:end], out[start:end])
	}
	return out
}

// invertBatchTree inverts one batch with an explicit product tree.
func invertBatchTree(in, out []ff.Fr) {
	n := len(in)
	// Collect nonzero elements.
	vals := make([]ff.Fr, 0, n)
	idx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !in[i].IsZero() {
			vals = append(vals, in[i])
			idx = append(idx, i)
		}
	}
	if len(vals) == 0 {
		return
	}
	// Build tree layers bottom-up; layers[0] = leaves.
	layers := [][]ff.Fr{vals}
	for len(layers[len(layers)-1]) > 1 {
		prev := layers[len(layers)-1]
		next := make([]ff.Fr, (len(prev)+1)/2)
		for i := 0; i < len(prev)/2; i++ {
			next[i].Mul(&prev[2*i], &prev[2*i+1])
		}
		if len(prev)%2 == 1 {
			next[len(next)-1] = prev[len(prev)-1]
		}
		layers = append(layers, next)
	}
	// Invert the root, then push inverses down: if node = l·r then
	// l^{-1} = node^{-1}·r and r^{-1} = node^{-1}·l.
	root := layers[len(layers)-1]
	var rootInv ff.Fr
	rootInv.Inverse(&root[0])
	invLayer := []ff.Fr{rootInv}
	for li := len(layers) - 2; li >= 0; li-- {
		cur := layers[li]
		nextInv := make([]ff.Fr, len(cur))
		for i := range invLayer {
			l, r := 2*i, 2*i+1
			if r < len(cur) {
				nextInv[l].Mul(&invLayer[i], &cur[r])
				nextInv[r].Mul(&invLayer[i], &cur[l])
			} else if l < len(cur) {
				nextInv[l] = invLayer[i]
			}
		}
		invLayer = nextInv
	}
	for k, i := range idx {
		out[i] = invLayer[k]
	}
}

// FractionMLE computes φ = N/D elementwise (the FracMLE unit, §4.4),
// using Montgomery-batched inversion with the paper's optimal batch size 64.
func FractionMLE(num, den *MLE) *MLE {
	if num.NumVars != den.NumVars {
		panic("poly: FractionMLE dimension mismatch")
	}
	inv := BatchInverseTree(den.Evals, 64)
	out := make([]ff.Fr, len(inv))
	for i := range out {
		out[i].Mul(&num.Evals[i], &inv[i])
	}
	return &MLE{NumVars: num.NumVars, Evals: out}
}

// fracBatch is the FracMLE batch size (the paper's optimum, §4.4.3).
// Keeping it a compile-time constant lets invertBatchFixed run entirely
// on stack arrays — the zero-allocation path FractionMLEWith chunks
// across goroutines.
const fracBatch = 64

// FractionMLEWith is FractionMLE under an explicit kernel configuration:
// the element range is chunked across goroutines at batch granularity
// (each 64-element batch shares one modular inversion and writes a
// disjoint output range) and each batch's multiplier tree lives on the
// worker's stack, so the kernel performs no per-batch heap allocation.
// Inverses are unique, so the output is identical to FractionMLE for any
// Options.
func FractionMLEWith(num, den *MLE, opts Options) *MLE {
	if num.NumVars != den.NumVars {
		panic("poly: FractionMLE dimension mismatch")
	}
	n := len(den.Evals)
	out := make([]ff.Fr, n)
	nBatches := (n + fracBatch - 1) / fracBatch
	// One batch (~one inversion plus ~3·64 multiplications) is far above
	// the dispatch overhead, so chunk at batch granularity.
	par.Range(nBatches, min(opts.Workers(), nBatches/2), func(lo, hi int) {
		for b := lo; b < hi; b++ {
			start := b * fracBatch
			end := start + fracBatch
			if end > n {
				end = n
			}
			invertBatchFixed(den.Evals[start:end], out[start:end])
			for i := start; i < end; i++ {
				out[i].Mul(&out[i], &num.Evals[i])
			}
		}
	})
	return &MLE{NumVars: num.NumVars, Evals: out}
}

// FractionOfProductsWith computes φ = Π_j num[j] / Π_j den[j] elementwise:
// the Construct N&D unit feeding the FracMLE unit directly. Each 64-element
// batch forms its numerator and denominator products on the worker's
// stack, shares one inversion across the denominators and writes φ, so
// neither product table is ever stored. Every factor must have the same
// variable count. Inverses are unique, so the output equals FractionMLEWith
// over the materialized products for any Options.
func FractionOfProductsWith(num, den []Affine, opts Options) *MLE {
	nv := num[0].W.NumVars
	for _, fs := range [][]Affine{num, den} {
		for _, f := range fs {
			if f.W.NumVars != nv {
				panic("poly: FractionOfProductsWith dimension mismatch")
			}
		}
	}
	n := 1 << nv
	out := make([]ff.Fr, n)
	nBatches := (n + fracBatch - 1) / fracBatch
	par.Range(nBatches, min(opts.Workers(), nBatches/2), func(lo, hi int) {
		var nb, db [fracBatch]ff.Fr
		var t ff.Fr
		for b := lo; b < hi; b++ {
			start := b * fracBatch
			end := min(start+fracBatch, n)
			for i := start; i < end; i++ {
				num[0].At(i, &nb[i-start])
				for j := 1; j < len(num); j++ {
					num[j].At(i, &t)
					nb[i-start].Mul(&nb[i-start], &t)
				}
				den[0].At(i, &db[i-start])
				for j := 1; j < len(den); j++ {
					den[j].At(i, &t)
					db[i-start].Mul(&db[i-start], &t)
				}
			}
			invertBatchFixed(db[:end-start], out[start:end])
			for i := start; i < end; i++ {
				out[i].Mul(&out[i], &nb[i-start])
			}
		}
	})
	return &MLE{NumVars: nv, Evals: out}
}

// invertBatchFixed inverts one batch of at most fracBatch elements with
// an explicit product tree held in stack arrays (no heap allocation).
// Zero entries pass through as zero, exactly like invertBatchTree.
func invertBatchFixed(in, out []ff.Fr) {
	// Compact nonzero elements; a full binary tree over up to 64 leaves
	// has at most 2·64-1 nodes. nodes[0:m] are leaves; parents follow
	// layer by layer, the root last.
	var nodes [2*fracBatch - 1]ff.Fr
	var inv [2 * fracBatch]ff.Fr
	var idx [fracBatch]int
	m := 0
	for i := range in {
		if !in[i].IsZero() {
			nodes[m] = in[i]
			idx[m] = i
			m++
		}
	}
	for i := range out[:len(in)] {
		out[i].SetZero()
	}
	if m == 0 {
		return
	}
	// Build layers bottom-up. layerAt[k] is the node-array offset of
	// layer k; widths halve (odd stragglers promote unchanged).
	var layerAt [8]int
	var layerW [8]int
	layerAt[0], layerW[0] = 0, m
	nl := 1
	total := m
	for layerW[nl-1] > 1 {
		prev, pw := layerAt[nl-1], layerW[nl-1]
		w := (pw + 1) / 2
		layerAt[nl], layerW[nl] = total, w
		for i := 0; i < pw/2; i++ {
			nodes[total+i].Mul(&nodes[prev+2*i], &nodes[prev+2*i+1])
		}
		if pw%2 == 1 {
			nodes[total+w-1] = nodes[prev+pw-1]
		}
		total += w
		nl++
	}
	// Invert the root, then push inverses down: if node = l·r then
	// l⁻¹ = node⁻¹·r and r⁻¹ = node⁻¹·l.
	inv[layerAt[nl-1]].Inverse(&nodes[layerAt[nl-1]])
	for li := nl - 2; li >= 0; li-- {
		cur, cw := layerAt[li], layerW[li]
		up := layerAt[li+1]
		for i := 0; i < (cw+1)/2; i++ {
			l, r := 2*i, 2*i+1
			if r < cw {
				inv[cur+l].Mul(&inv[up+i], &nodes[cur+r])
				inv[cur+r].Mul(&inv[up+i], &nodes[cur+l])
			} else {
				inv[cur+l] = inv[up+i]
			}
		}
	}
	for k := 0; k < m; k++ {
		out[idx[k]] = inv[k]
	}
}
