// Package msm implements multi-scalar multiplication over BLS12-381 G1.
//
// There is one fast path and one named reference:
//
//   - MSM, MSMWithOptions and SparseMSM run the fast path: signed-digit
//     windows (halving the bucket count to 2^(c-1)), GLV endomorphism
//     splitting on fixed limbs (halving the window-loop bit length), and
//     batch-affine bucket accumulation and grouped aggregation (Montgomery
//     batch inversion turning ~11-mul Jacobian mixed adds into ~6-mul
//     affine adds). Each window is one task; windows left over after the
//     last full round of goroutines are cut into point chunks. The default
//     width comes from a two-goroutine sweep (DefaultWindowFast). See
//     fast.go.
//   - Pippenger is the classic software shape — unsigned windows,
//     Jacobian mixed adds per bucket insert, parallelism across windows —
//     kept as the benchmark reference, the §4.2 window × aggregation
//     sweep (the paper's MSM unit design knob, Table 2) and a test oracle
//     next to Naive.
//
// Both are variable-base: like zkSpeed's MSM unit, which streams SRS
// points and precomputes no per-point window tables, every call starts
// from the affine points. The package also provides the Sparse MSM scheme
// used for witness commitments (§3.3.1/§4.2: tree-reduce the 1-valued
// scalars on batched affine additions, skip zeros, fast MSM on the ~10%
// dense remainder) and both bucket-aggregation schedules compared in
// Fig. 5 (SZKP's serial running sum vs. zkSpeed's grouped aggregation).
package msm

import (
	"fmt"
	"runtime"
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// digitAt extracts bits [lo, lo+c) of a little-endian word slice.
func digitAt(w []uint64, lo, c int) uint64 {
	idx := lo / 64
	if idx >= len(w) {
		return 0
	}
	shift := lo % 64
	v := w[idx] >> shift
	if shift+c > 64 && idx+1 < len(w) {
		v |= w[idx+1] << (64 - shift)
	}
	return v & ((1 << c) - 1)
}

// Options configures an MSM computation.
type Options struct {
	// Window is the window width in bits; 0 selects a size heuristic
	// (DefaultWindowFast, or DefaultWindow under Pippenger).
	Window int
	// Aggregation selects the bucket aggregation schedule.
	Aggregation Aggregation
	// Parallel enables goroutine parallelism (across windows, and for the
	// fast path also across point chunks).
	Parallel bool
	// Procs bounds the number of goroutines a parallel MSM may use;
	// a value ≤ 0 means GOMAXPROCS.
	Procs int
}

// procs resolves the goroutine budget under the rule poly.Options shares:
// a serial run uses one goroutine, a parallel one Procs, and a
// non-positive Procs means GOMAXPROCS.
func (o *Options) procs() int {
	if !o.Parallel {
		return 1
	}
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

// Aggregation identifies a bucket-aggregation schedule.
type Aggregation int

const (
	// AggregateSerial is SZKP's running-sum aggregation: 2(2^W-1) strictly
	// serial point additions.
	AggregateSerial Aggregation = iota
	// AggregateGrouped is zkSpeed's scheme (§4.2.2): buckets are split into
	// groups (size 16), partial sums computed per group, then combined.
	AggregateGrouped
)

// GroupSize is the bucket-aggregation group size selected in §4.2.2.
const GroupSize = 16

// DefaultWindow returns the heuristic window size for an n-point MSM on
// the unsigned Pippenger reference.
func DefaultWindow(n int) int {
	c := 1
	for 1<<uint(c+1) < n && c < 16 {
		c++
	}
	if c < 4 {
		c = 4
	}
	// The paper's design space uses 7..10-bit windows for large problems.
	if c > 10 {
		c = 10
	}
	return c
}

// MSM computes Σ scalars[i]·points[i] with default options: the combined
// fast path (signed windows + GLV + batch-affine buckets), grouped
// aggregation, full parallelism.
func MSM(points []curve.G1Affine, scalars []ff.Fr) curve.G1Jac {
	return MSMWithOptions(points, scalars, Options{Parallel: true, Aggregation: AggregateGrouped})
}

// MSMWithOptions computes Σ scalars[i]·points[i] on the fast path.
func MSMWithOptions(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	if len(points) != len(scalars) {
		panic(fmt.Sprintf("msm: %d points vs %d scalars", len(points), len(scalars)))
	}
	if len(points) == 0 {
		return curve.G1Jac{}
	}
	return msmFast(points, scalars, opt)
}

// Pippenger is the retained pre-optimization reference: unsigned window
// digits, one Jacobian bucket set of 2^c-1 per window, parallel across
// windows only. Nothing in the prover calls it; the bench suite sweeps it
// over window × aggregation (Fig. 5), CI gates the fast path against it,
// and tests use it as an oracle.
func Pippenger(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	if len(points) != len(scalars) {
		panic(fmt.Sprintf("msm: %d points vs %d scalars", len(points), len(scalars)))
	}
	var out curve.G1Jac
	if len(points) == 0 {
		return out
	}
	c := opt.Window
	if c <= 0 {
		c = DefaultWindow(len(points))
	}
	words := make([][4]uint64, len(scalars))
	for i := range scalars {
		words[i] = scalars[i].CanonicalLimbs()
	}
	numWindows := (ff.FrBits + c - 1) / c

	windowSums := make([]curve.G1Jac, numWindows)
	processWindow := func(w int) {
		buckets := make([]curve.G1Jac, 1<<uint(c))
		for i := range points {
			d := digitAt(words[i][:], w*c, c)
			if d != 0 {
				buckets[d].AddMixed(&points[i])
			}
		}
		windowSums[w] = aggregateBuckets(buckets[1:], opt.Aggregation)
	}

	if procs := opt.procs(); procs > 1 && numWindows > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, procs)
		for w := 0; w < numWindows; w++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(w int) {
				defer wg.Done()
				processWindow(w)
				<-sem
			}(w)
		}
		wg.Wait()
	} else {
		for w := 0; w < numWindows; w++ {
			processWindow(w)
		}
	}

	return hornerCombine(windowSums, c, &out)
}

// hornerCombine folds per-window sums: out = Σ windowSums[w]·2^{cw}.
func hornerCombine(windowSums []curve.G1Jac, c int, out *curve.G1Jac) curve.G1Jac {
	numWindows := len(windowSums)
	for w := numWindows - 1; w >= 0; w-- {
		if w != numWindows-1 {
			for k := 0; k < c; k++ {
				out.Double(out)
			}
		}
		out.Add(out, &windowSums[w])
	}
	return *out
}

// aggregateBuckets computes Σ (i+1)·buckets[i] (buckets[0] holds digit 1).
func aggregateBuckets(buckets []curve.G1Jac, agg Aggregation) curve.G1Jac {
	switch agg {
	case AggregateGrouped:
		return aggregateGrouped(buckets, GroupSize)
	default:
		return aggregateSerial(buckets)
	}
}

// aggregateSerial is the classic running-sum: walking buckets from the top,
// running += bucket; total += running.
func aggregateSerial(buckets []curve.G1Jac) curve.G1Jac {
	var running, total curve.G1Jac
	for i := len(buckets) - 1; i >= 0; i-- {
		running.Add(&running, &buckets[i])
		total.Add(&total, &running)
	}
	return total
}

// aggregateGrouped splits the buckets into groups of size g. For group k
// (owning digits [k·g+1, (k+1)·g]):
//
//	Σ_i digit_i·B_i = Σ_k [ k·g·(Σ_{i∈k} B_i) + Σ_{i∈k} local_i·B_i ]
//
// Per-group partial sums are independent (pipeline-parallel in hardware —
// the Fig. 5 latency win); here they are computed with the same running-sum
// identity per group and combined exactly.
func aggregateGrouped(buckets []curve.G1Jac, g int) curve.G1Jac {
	numGroups := (len(buckets) + g - 1) / g
	groupSum := make([]curve.G1Jac, numGroups)
	groupWeighted := make([]curve.G1Jac, numGroups)
	for k := 0; k < numGroups; k++ {
		lo := k * g
		hi := lo + g
		if hi > len(buckets) {
			hi = len(buckets)
		}
		var running, local curve.G1Jac
		for i := hi - 1; i >= lo; i-- {
			running.Add(&running, &buckets[i])
			local.Add(&local, &running)
		}
		groupSum[k] = running // Σ_{i∈k} B_i
		groupWeighted[k] = local
	}
	return combineGroups(groupSum, groupWeighted, g)
}

// combineGroups returns Σ_k (groupWeighted[k] + (k·g)·groupSum[k]), with
// Σ_k k·groupSum[k] computed via suffix sums and scaled by g with
// double-and-add.
func combineGroups(groupSum, groupWeighted []curve.G1Jac, g int) curve.G1Jac {
	numGroups := len(groupSum)
	var suffix, kWeighted curve.G1Jac
	for k := numGroups - 1; k >= 1; k-- {
		suffix.Add(&suffix, &groupSum[k])
		kWeighted.Add(&kWeighted, &suffix)
	}
	var total curve.G1Jac
	rem := g
	cur := kWeighted
	for rem > 0 {
		if rem&1 == 1 {
			total.Add(&total, &cur)
		}
		cur.Double(&cur)
		rem >>= 1
	}
	for k := 0; k < numGroups; k++ {
		total.Add(&total, &groupWeighted[k])
	}
	return total
}

// SparseStats describes the scalar distribution of a sparse MSM input.
type SparseStats struct {
	Zeros, Ones, Dense int
}

// ClassifyScalars partitions scalars into zeros, ones and dense values.
func ClassifyScalars(scalars []ff.Fr) SparseStats {
	var st SparseStats
	for i := range scalars {
		switch {
		case scalars[i].IsZero():
			st.Zeros++
		case scalars[i].IsOne():
			st.Ones++
		default:
			st.Dense++
		}
	}
	return st
}

// SparseMSM computes Σ scalars[i]·points[i] exploiting sparsity as zkSpeed
// does for witness commitments: zeros are skipped, the points with scalar 1
// are summed with a pairwise reduction tree of batched affine additions
// (sumOnes), and the dense remainder goes through the fast bucket MSM (the
// dense-remainder Pippenger of §4.2 inherits every kernel upgrade). The
// scalars are classified once up front, so each partition is allocated
// at its exact size.
func SparseMSM(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	if len(points) != len(scalars) {
		panic("msm: mismatched sparse MSM input")
	}
	st := ClassifyScalars(scalars)
	onesPts := make([]curve.G1Affine, 0, st.Ones)
	densePts := make([]curve.G1Affine, 0, st.Dense)
	denseScalars := make([]ff.Fr, 0, st.Dense)
	for i := range scalars {
		switch {
		case scalars[i].IsZero():
		case scalars[i].IsOne():
			onesPts = append(onesPts, points[i])
		default:
			densePts = append(densePts, points[i])
			denseScalars = append(denseScalars, scalars[i])
		}
	}
	onesSum := sumOnes(onesPts, opt.procs())
	denseSum := MSMWithOptions(densePts, denseScalars, opt)
	var out curve.G1Jac
	out.Add(&onesSum, &denseSum)
	return out
}

// Naive computes the MSM by independent scalar multiplications; used as a
// test oracle.
func Naive(points []curve.G1Affine, scalars []ff.Fr) curve.G1Jac {
	var acc curve.G1Jac
	for i := range points {
		var pj, term curve.G1Jac
		pj.FromAffine(&points[i])
		term.ScalarMul(&pj, &scalars[i])
		acc.Add(&acc, &term)
	}
	return acc
}
