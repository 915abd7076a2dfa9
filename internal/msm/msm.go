// Package msm implements multi-scalar multiplication over BLS12-381 G1.
//
// Two generations of the kernel coexist:
//
//   - KernelPippenger is the classic software shape — unsigned windows,
//     Jacobian mixed adds per bucket insert, parallelism across windows —
//     kept intact as the benchmark baseline and as the §4.2 reference
//     (the paper's MSM unit design knob, Table 2).
//   - The fast path (the default) layers the three standard algorithmic
//     upgrades on top: signed-digit windows (halving the bucket count to
//     2^(c-1)), GLV endomorphism splitting (halving the window-loop bit
//     length), and batch-affine bucket accumulation (Montgomery batch
//     inversion turning ~11-mul Jacobian mixed adds into ~6-mul affine
//     adds), plus point-chunked parallelism so large MSMs scale past the
//     window count. See fast.go.
//
// The package also provides the Sparse MSM scheme used for witness
// commitments (§3.3.1/§4.2: tree-reduce the 1-valued scalars, skip zeros,
// fast MSM on the ~10% dense remainder) and both bucket-aggregation
// schedules compared in Fig. 5 (SZKP's serial running sum vs. zkSpeed's
// grouped aggregation).
package msm

import (
	"fmt"
	"runtime"
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// windowDigit extracts bits [lo, lo+c) of w.
func windowDigit(w [4]uint64, lo, c int) uint64 {
	return digitAt(w[:], lo, c)
}

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

// Kernel selects the MSM bucket-accumulation algorithm.
type Kernel int

const (
	// KernelAuto (the zero value) resolves to KernelFast — callers get
	// the full fast path unless they ask for a specific regime.
	KernelAuto Kernel = iota
	// KernelPippenger is the pre-optimization reference: unsigned
	// windows, Jacobian mixed adds, window-level parallelism only.
	KernelPippenger
	// KernelSigned uses signed-digit (wNAF-style) windows with Jacobian
	// buckets: 2^(c-1) buckets instead of 2^c-1.
	KernelSigned
	// KernelSignedGLV adds GLV endomorphism splitting to KernelSigned:
	// 2n half-length scalars, halving the window-loop bit length.
	KernelSignedGLV
	// KernelBatchAffine uses signed windows with batch-affine bucket
	// accumulation (Montgomery batch inversion), without GLV.
	KernelBatchAffine
	// KernelFast combines signed windows, GLV splitting and batch-affine
	// buckets — the default production path.
	KernelFast
	// KernelFixedBase consumes a precomputed window-multiple table for a
	// fixed point set (the SRS commit basis): no doubling chain, one
	// global signed-digit bucket pass over all (point, window) pairs. It
	// needs the table alongside the points, so it is reachable only
	// through MSMFixedBase / SparseMSMFixedBase (pcs routes to them when
	// tables are attached); MSMWithOptions rejects it.
	KernelFixedBase
)

// String names the kernel for benchmark labels.
func (k Kernel) String() string {
	switch k {
	case KernelPippenger:
		return "pippenger"
	case KernelSigned:
		return "signed"
	case KernelSignedGLV:
		return "glv"
	case KernelBatchAffine:
		return "batchaffine"
	case KernelFixedBase:
		return "fixedbase"
	case KernelFast, KernelAuto:
		return "fast"
	}
	return fmt.Sprintf("kernel(%d)", int(k))
}

// Options configures an MSM computation.
type Options struct {
	// Window is the Pippenger window width in bits; 0 selects a size- and
	// kernel-aware heuristic (DefaultWindow / DefaultWindowFast).
	Window int
	// Aggregation selects the bucket aggregation schedule.
	Aggregation Aggregation
	// Parallel enables goroutine parallelism (across windows, and for the
	// fast path also across point chunks).
	Parallel bool
	// Procs bounds the number of goroutines a parallel MSM may use;
	// 0 means GOMAXPROCS. This is the knob zkspeed.WithParallelism
	// reaches down to.
	Procs int
	// Kernel selects the bucket-accumulation algorithm; the zero value
	// (KernelAuto) is the combined fast path.
	Kernel Kernel
}

// ResolvedProcs is the single place the goroutine budget is clamped:
// serial runs and non-positive budgets resolve to 1 goroutine, and a
// parallel run with Procs == 0 resolves to GOMAXPROCS. Every kernel in
// this package and every caller that forwards the budget to another
// kernel layer (pcs.OpenWith hands it to poly) must resolve through
// here, so a zero Procs from a call site that never set it means the
// same thing — "all CPUs" — at every level instead of silently hitting
// each layer's own default.
func (o *Options) ResolvedProcs() int {
	if !o.Parallel {
		return 1
	}
	if o.Procs > 0 {
		return o.Procs
	}
	if o.Procs < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// procs resolves the goroutine budget.
func (o *Options) procs() int { return o.ResolvedProcs() }

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
// the unsigned KernelPippenger path (the pre-optimization regime).
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

// MSMWithOptions computes Σ scalars[i]·points[i].
func MSMWithOptions(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	if len(points) != len(scalars) {
		panic(fmt.Sprintf("msm: %d points vs %d scalars", len(points), len(scalars)))
	}
	var out curve.G1Jac
	if len(points) == 0 {
		return out
	}
	switch opt.Kernel {
	case KernelFixedBase:
		panic("msm: KernelFixedBase needs a precomputed table; call MSMFixedBase")
	case KernelPippenger:
		return msmPippenger(points, scalars, opt)
	case KernelSigned:
		return msmFast(points, scalars, opt, false, false)
	case KernelSignedGLV:
		return msmFast(points, scalars, opt, true, false)
	case KernelBatchAffine:
		return msmFast(points, scalars, opt, false, true)
	default: // KernelAuto, KernelFast
		return msmFast(points, scalars, opt, true, true)
	}
}

// msmPippenger is the retained pre-optimization reference path: unsigned
// window digits, one Jacobian bucket set of 2^c-1 per window, parallel
// across windows only.
func msmPippenger(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	var out curve.G1Jac
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
			d := windowDigit(words[i], w*c, c)
			if d != 0 {
				buckets[d].AddMixed(&points[i])
			}
		}
		windowSums[w] = aggregateBuckets(buckets[1:], opt.Aggregation)
	}

	if opt.Parallel && numWindows > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, opt.procs())
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
	var total curve.G1Jac
	numGroups := (len(buckets) + g - 1) / g
	// Process groups from the top so the k·g· scaling can be applied by
	// repeated accumulate (base trick): maintain sumOfGroupSums and add it
	// g times per step down — equivalently compute directly.
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
	total = combineGroups(groupSum, groupWeighted, g)
	return total
}

// combineGroups folds per-group aggregation partials into the total:
// Σ_k (groupWeighted[k] + (k·g)·groupSum[k]), with Σ_k k·groupSum[k]
// computed via suffix sums and scaled by g with double-and-add. Shared by
// the Jacobian grouped schedule above and the batch-affine grouped
// schedule of the fixed-base kernel (aggregateAffine).
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
// are summed with a pairwise reduction tree, and the dense remainder goes
// through the bucket MSM selected by opt (the fast path by default — the
// dense-remainder Pippenger of §4.2 inherits every kernel upgrade).
func SparseMSM(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	if len(points) != len(scalars) {
		panic("msm: mismatched sparse MSM input")
	}
	var onesPts []curve.G1Affine
	var densePts []curve.G1Affine
	var denseScalars []ff.Fr
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
	onesSum := TreeSum(onesPts)
	denseSum := MSMWithOptions(densePts, denseScalars, opt)
	var out curve.G1Jac
	out.Add(&onesSum, &denseSum)
	return out
}

// TreeSum adds points with a pairwise binary reduction tree — the schedule
// the MSM unit uses for 1-valued scalars (§4.2), which keeps the pipelined
// PADD unit full in hardware.
func TreeSum(points []curve.G1Affine) curve.G1Jac {
	if len(points) == 0 {
		return curve.G1Jac{}
	}
	level := make([]curve.G1Jac, len(points))
	for i := range points {
		level[i].FromAffine(&points[i])
	}
	for len(level) > 1 {
		next := make([]curve.G1Jac, (len(level)+1)/2)
		for i := 0; i < len(level)/2; i++ {
			next[i].Add(&level[2*i], &level[2*i+1])
		}
		if len(level)%2 == 1 {
			next[len(next)-1] = level[len(level)-1]
		}
		level = next
	}
	return level[0]
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
