package msm

import (
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// The fast MSM path: signed-digit windows, GLV splitting and batch-affine
// bucket accumulation, with point-chunked parallelism.
//
// Pipeline:
//
//  1. Split every scalar through the GLV endomorphism and recode both
//     half-scalars into carry-corrected signed window digits in
//     [-2^(c-1), 2^(c-1)); a negative digit adds the negated point, so
//     only 2^(c-1) buckets per window are needed.
//  2. Partition the (point, digit-row) pairs into chunks and accumulate
//     buckets per (window, chunk) task — affine adds under Montgomery
//     batch inversion (see affineAcc), or Jacobian mixed adds for a chunk
//     below minBatchAffinePoints.
//  3. Aggregate each task's buckets (Σ (i+1)·B_i, serial or grouped per
//     opt.Aggregation), merge chunk partials per window in chunk order
//     (deterministic), and Horner-combine the window sums.

// minChunkPoints is the smallest chunk worth a separate task: below this
// the per-task bucket-aggregation overhead outweighs the parallelism.
const minChunkPoints = 2048

// batchAddSize is the flush threshold of the batch-affine accumulator —
// how many bucket updates share one field inversion.
const batchAddSize = 512

// minBatchAffinePoints is the smallest chunk (in effective points, 2n
// after the GLV split) that accumulates its buckets in affine coordinates. Every
// window of a chunk pays at least one shared inversion (~10 mixed
// additions) to save about half a mixed addition per point, so small
// inputs — a verifier's (μ+2)-term combination, the tail of an opening
// chain — are faster on Jacobian buckets: measured serially at the default
// window, 1.4 against 3.4 ms for n = 18 and 5.3 against 6.0 ms for
// n = 128; from n = 512 (12.6 against 14.9 ms) affine buckets win.
const minBatchAffinePoints = 256

// signedWindows returns the window count for a bits-wide magnitude:
// ceil(bits/c) data windows plus one carry window, so the top digit is
// only ever the carry (0 or 1) and can never overflow to -2^(c-1).
func signedWindows(bits, c int) int {
	return (bits+c-1)/c + 1
}

// signedDigits writes the nw carry-corrected signed base-2^c digits of
// the little-endian magnitude words into out, negating every digit when
// neg is set (folding the GLV half-scalar sign into the digit stream).
// Raw digits lie in [-2^(c-1), 2^(c-1)); the neg flip can map the bottom
// end to +2^(c-1), so consumers must accept |digit| ≤ 2^(c-1) (bucket
// index |d|-1). The value is Σ out[i]·2^(ci).
func signedDigits(words []uint64, c, nw int, neg bool, out []int16) {
	half := int64(1) << (c - 1)
	full := int64(1) << c
	carry := int64(0)
	for i := 0; i < nw; i++ {
		d := int64(digitAt(words, i*c, c)) + carry
		if d >= half {
			d -= full
			carry = 1
		} else {
			carry = 0
		}
		if neg {
			d = -d
		}
		out[i] = int16(d)
	}
	if carry != 0 {
		panic("msm: signed digit recoding overflow")
	}
}

// DefaultWindowFast returns the heuristic window width for the fast path
// (signed windows; pts is the effective point count, 2n after the GLV split).
//
// Breakpoints recalibrated for the signed/GLV regime from a window sweep
// (go test -bench over windows 6..12 at n=2^10 and 2^12, Xeon 2.10GHz,
// single-threaded): signed windows halve the per-window aggregation cost
// (2^(c-1) buckets) and batch-affine makes bucket inserts ~3× cheaper
// than the aggregation's Jacobian adds, so wider windows pay off roughly
// one point-count octave earlier than the unsigned DefaultWindow — w8
// was fastest at 2048 effective points (w6 ~1.8×, w12 ~2.1× slower) and
// w10 at 8192 (w8 ~1.25×, w12 ~1.3× slower), with the curve flat (±10%)
// for ±1 bit around each breakpoint. Above the swept range the
// breakpoints extend the same octave-per-2-bits trend toward the paper's
// large-problem design space (Table 2 stops at 10-bit hardware windows;
// software keeps gaining slowly to 13).
func DefaultWindowFast(pts int) int {
	switch {
	case pts < 1<<7:
		return 4
	case pts < 1<<9:
		return 6
	case pts < 1<<12:
		return 8
	case pts < 1<<14:
		return 10
	case pts < 1<<17:
		return 11
	case pts < 1<<20:
		return 12
	default:
		return 13
	}
}

// msmFast computes the MSM with signed windows over the GLV split of every
// scalar: 2n effective points of half-length scalars.
func msmFast(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	n := len(points)
	nPts := 2 * n
	c := opt.Window
	if c <= 0 {
		c = DefaultWindowFast(nPts)
	}
	// Signed digits with magnitude up to 2^(c-1) must fit int16, and the
	// recoder walks 64-bit words: clamp to sensible widths.
	if c < 2 {
		c = 2
	}
	if c > 15 {
		c = 15
	}
	nw := signedWindows(ff.GLVBits, c)
	procs := opt.procs()

	// Stage 1: bases and digit rows (row i = digits[i*nw : (i+1)*nw]).
	bases := make([]curve.G1Affine, nPts)
	digits := make([]int16, nPts*nw)
	parallelFor(n, procs, func(lo, hi int) {
		var split ff.GLVSplitter
		for i := lo; i < hi; i++ {
			k1, k2 := split.Split(&scalars[i])
			bases[2*i] = points[i]
			bases[2*i+1].Phi(&points[i])
			signedDigits(k1.W[:], c, nw, k1.Neg, digits[(2*i)*nw:(2*i+1)*nw])
			signedDigits(k2.W[:], c, nw, k2.Neg, digits[(2*i+1)*nw:(2*i+2)*nw])
		}
	})

	// Stage 2+3: bucket accumulation and aggregation per (window, chunk).
	nChunks := (procs + nw - 1) / nw
	if max := nPts / minChunkPoints; nChunks > max {
		nChunks = max
	}
	if nChunks < 1 {
		nChunks = 1
	}
	chunkLen := (nPts + nChunks - 1) / nChunks
	partials := make([]curve.G1Jac, nw*nChunks)
	task := func(w, chunk int) {
		lo := chunk * chunkLen
		hi := lo + chunkLen
		if hi > nPts {
			hi = nPts
		}
		if hi-lo >= minBatchAffinePoints {
			partials[w*nChunks+chunk] = bucketAccAffine(bases, digits, nw, w, c, lo, hi, opt.Aggregation)
		} else {
			partials[w*nChunks+chunk] = bucketAccJac(bases, digits, nw, w, c, lo, hi, opt.Aggregation)
		}
	}
	if procs > 1 && nw*nChunks > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, procs)
		for w := 0; w < nw; w++ {
			for chunk := 0; chunk < nChunks; chunk++ {
				wg.Add(1)
				sem <- struct{}{}
				go func(w, chunk int) {
					defer wg.Done()
					task(w, chunk)
					<-sem
				}(w, chunk)
			}
		}
		wg.Wait()
	} else {
		for w := 0; w < nw; w++ {
			for chunk := 0; chunk < nChunks; chunk++ {
				task(w, chunk)
			}
		}
	}

	// Merge chunk partials per window (chunk order — deterministic), then
	// Horner-combine the window sums.
	windowSums := make([]curve.G1Jac, nw)
	for w := 0; w < nw; w++ {
		for chunk := 0; chunk < nChunks; chunk++ {
			windowSums[w].Add(&windowSums[w], &partials[w*nChunks+chunk])
		}
	}
	var out curve.G1Jac
	return hornerCombine(windowSums, c, &out)
}

// bucketAccJac accumulates the signed digits of window w over
// bases[lo:hi] into 2^(c-1) Jacobian buckets and aggregates them.
func bucketAccJac(bases []curve.G1Affine, digits []int16, nw, w, c, lo, hi int, agg Aggregation) curve.G1Jac {
	buckets := make([]curve.G1Jac, 1<<uint(c-1))
	for i := lo; i < hi; i++ {
		d := digits[i*nw+w]
		if d == 0 {
			continue
		}
		if d > 0 {
			buckets[d-1].AddMixed(&bases[i])
		} else {
			var np curve.G1Affine
			np.Neg(&bases[i])
			buckets[-d-1].AddMixed(&np)
		}
	}
	return aggregateBuckets(buckets, agg)
}

// bucketAccAffine is bucketAccJac with batch-affine buckets: inserts are
// staged and applied in batches sharing one field inversion each.
func bucketAccAffine(bases []curve.G1Affine, digits []int16, nw, w, c, lo, hi int, agg Aggregation) curve.G1Jac {
	nb := 1 << uint(c-1)
	acc := newAffineAcc(nb)
	for i := lo; i < hi; i++ {
		d := digits[i*nw+w]
		if d == 0 {
			continue
		}
		if d > 0 {
			acc.add(int32(d-1), &bases[i], false)
		} else {
			acc.add(int32(-d-1), &bases[i], true)
		}
	}
	buckets := acc.finish()
	jb := make([]curve.G1Jac, nb)
	for i := range jb {
		jb[i].FromAffine(&buckets[i])
	}
	return aggregateBuckets(jb, agg)
}

// affineAcc stages bucket updates for curve.BatchAddMixed, which needs
// distinct targets within one call. An update whose bucket is already
// staged is parked on a conflict queue. A pass over the queue sends one
// parked point per free bucket to its bucket and adds the others of that
// bucket to each other in pairs, all inside the same shared inversions,
// so m points colliding on one bucket reduce as a tree — m additions in
// ~m/batch inversions — instead of one single-addition batch each. That
// is the shape of a selector commitment, whose scalars are all equal.
type affineAcc struct {
	// slots holds the nb buckets, then one scratch slot per pair sum of
	// the current batch: adding a pair is a BatchAddMixed update of a
	// slot that starts out as the pair's first point.
	slots   []curve.G1Affine
	nb      int
	pending []bool // bucket staged in the current batch
	idx     []int32
	adds    []curve.G1Affine
	pairs   []int32 // bucket of each pair-sum slot the current batch uses
	denoms  []ff.Fp
	scratch []ff.Fp
	batch   int
	// Conflict queue, double-buffered so a pass can queue for the next
	// one without aliasing the slice it reads.
	qIdx, qIdxAlt []int32
	qPts, qPtsAlt []curve.G1Affine
	// mate[b] is the queue position of a point of bucket b waiting for
	// its pair during a pass, or -1.
	mate []int32
	// inversions counts the batches run — one field inversion each.
	inversions int
}

func newAffineAcc(nb int) *affineAcc {
	batch := batchAddSize
	if batch > nb {
		// A batch of plain updates can hold at most one per bucket; a
		// larger threshold would only grow the conflict queue.
		batch = nb
	}
	a := &affineAcc{
		slots:   make([]curve.G1Affine, nb+batch),
		nb:      nb,
		pending: make([]bool, nb),
		idx:     make([]int32, 0, batch),
		adds:    make([]curve.G1Affine, 0, batch),
		pairs:   make([]int32, 0, batch),
		denoms:  make([]ff.Fp, batch),
		scratch: make([]ff.Fp, batch),
		batch:   batch,
		mate:    make([]int32, nb),
	}
	for i := 0; i < nb; i++ {
		a.slots[i] = curve.G1Infinity()
		a.mate[i] = -1
	}
	return a
}

// add stages p (negated when neg) for addition into bucket b.
func (a *affineAcc) add(b int32, p *curve.G1Affine, neg bool) {
	pt := *p
	if neg {
		pt.Neg(&pt)
	}
	if a.pending[b] {
		a.qIdx = append(a.qIdx, b)
		a.qPts = append(a.qPts, pt)
	} else {
		a.stage(b, &pt)
	}
	if len(a.idx) >= a.batch {
		a.runBatch() // batch full of distinct targets — best amortization
	} else if len(a.qIdx) >= 2*a.batch {
		a.reduceQueue() // enough parked points to fill a batch with pair sums
	}
}

// stage puts the update of bucket b by pt into the current batch.
func (a *affineAcc) stage(b int32, pt *curve.G1Affine) {
	a.pending[b] = true
	a.idx = append(a.idx, b)
	a.adds = append(a.adds, *pt)
}

// runBatch applies and clears the current batch; its pair sums join the
// conflict queue as single points of their bucket.
func (a *affineAcc) runBatch() {
	if len(a.idx) == 0 {
		return
	}
	curve.BatchAddMixed(a.slots, a.idx, a.adds, a.denoms, a.scratch)
	a.inversions++
	for _, t := range a.idx {
		if int(t) < a.nb {
			a.pending[t] = false
		}
	}
	for j, b := range a.pairs {
		if sum := &a.slots[a.nb+j]; !sum.Inf {
			a.qIdx = append(a.qIdx, b)
			a.qPts = append(a.qPts, *sum)
		}
	}
	a.idx = a.idx[:0]
	a.adds = a.adds[:0]
	a.pairs = a.pairs[:0]
}

// reduceQueue makes one pass over the conflict queue. The batch is
// applied first, so every mark is clear and each queued bucket takes at
// least one point: a bucket's queue of m shrinks to at most m/2, whatever
// the distribution. The pass may leave a partly filled batch staged.
func (a *affineAcc) reduceQueue() {
	a.runBatch()
	a.qIdx, a.qIdxAlt = a.qIdxAlt[:0], a.qIdx
	a.qPts, a.qPtsAlt = a.qPtsAlt[:0], a.qPts
	for k, b := range a.qIdxAlt {
		switch m := a.mate[b]; {
		case !a.pending[b]:
			a.stage(b, &a.qPtsAlt[k])
		case m < 0:
			a.mate[b] = int32(k)
		default:
			a.mate[b] = -1
			a.slots[a.nb+len(a.pairs)] = a.qPtsAlt[m]
			a.idx = append(a.idx, int32(a.nb+len(a.pairs)))
			a.adds = append(a.adds, a.qPtsAlt[k])
			a.pairs = append(a.pairs, b)
		}
		if len(a.idx) >= a.batch {
			a.runBatch()
		}
	}
	// Points left without a pair wait for the next pass.
	for k, b := range a.qIdxAlt {
		if a.mate[b] == int32(k) {
			a.mate[b] = -1
			a.qIdx = append(a.qIdx, b)
			a.qPts = append(a.qPts, a.qPtsAlt[k])
		}
	}
}

// finish applies everything staged or parked and returns the buckets.
func (a *affineAcc) finish() []curve.G1Affine {
	for a.runBatch(); len(a.qIdx) > 0; a.runBatch() {
		a.reduceQueue()
	}
	return a.slots[:a.nb]
}

// parallelFor splits [0, n) into one contiguous range per worker and runs
// fn on each concurrently. Writes must be disjoint per index.
func parallelFor(n, procs int, fn func(lo, hi int)) {
	if procs <= 1 || n < 2 {
		fn(0, n)
		return
	}
	if procs > n {
		procs = n
	}
	chunk := (n + procs - 1) / procs
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
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
