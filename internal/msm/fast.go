package msm

import (
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// The bucket MSM routes: signed-digit windows, GLV splitting (or, for
// narrow scalars, none) and batch-affine bucket accumulation and
// aggregation, scheduled so no goroutine idles.
//
// Pipeline:
//
//  1. Split every scalar through the GLV endomorphism (ff.GLVSplit) and
//     recode both half-scalars into carry-corrected signed window digits
//     in [-2^(c-1), 2^(c-1)) — signedWindows(128, c) of them, no idle
//     carry window; a negative digit adds the negated point, so only
//     2^(c-1) buckets per window are needed. The narrow route recodes
//     each scalar whole into signedWindows(bits, c) digits instead.
//  2. Accumulate buckets per task (scheduleWindows: whole windows, plus
//     point chunks of the windows left over after the last full round) —
//     affine adds under Montgomery batch inversion (see affineAcc), or
//     Jacobian mixed adds for a chunk below minBatchAffinePoints.
//  3. Aggregate each task's buckets (Σ (i+1)·B_i, serial or grouped per
//     opt.Aggregation; grouped over affine buckets advances the groups in
//     lockstep under shared inversions, aggregateGroupedAffine), merge
//     chunk partials per window in task order (deterministic), and
//     Horner-combine the window sums.
//
// Per effective point (2n of them) and window, a bucket update costs ~6
// field multiplications — 3 of the batch inversion, the slope, its square
// and the new y — and the aggregation adds ~12 per bucket, amortised over
// 2^(c-1) buckets against ~2^c points a window at the default widths.

// minChunkPoints is the smallest chunk worth a separate task: below this
// the per-task bucket-aggregation overhead outweighs the parallelism.
const minChunkPoints = 2048

// batchAddSize is the flush threshold of the batch-affine accumulator —
// how many bucket updates share one field inversion.
const batchAddSize = 512

// minBatchAffinePoints is the smallest chunk (in effective points: 2n
// after the GLV split, n on the narrow route) that accumulates its buckets
// in affine coordinates. Every window of a chunk pays at least one shared
// inversion (~10 mixed additions) to save about half a mixed addition per
// point, so small inputs — a verifier's (μ+2)-term combination, the tail
// of an opening chain — are faster on Jacobian buckets: measured serially
// at the default window, 1.4 against 3.4 ms for n = 18 and 5.3 against
// 6.0 ms for n = 128; from n = 512 (12.6 against 14.9 ms) affine buckets
// win.
const minBatchAffinePoints = 256

// signedWindows returns the number of signed base-2^c digits a magnitude
// below 2^bits needs: the smallest nw with c·nw ≥ bits+2. The recoder
// carries at most 1 into each window, so the top window ends the carry
// chain exactly when its raw value plus 1 stays below 2^(c-1), i.e. when
// it holds at most c-2 of the magnitude's bits.
func signedWindows(bits, c int) int {
	return (bits+1)/c + 1
}

// signedDigits writes the nw carry-corrected signed base-2^c digits of
// the little-endian magnitude words into out, negating every digit when
// neg is set (folding the GLV half-scalar sign into the digit stream).
// Raw digits lie in [-2^(c-1), 2^(c-1)); the neg flip can map the bottom
// end to +2^(c-1), so consumers must accept |digit| ≤ 2^(c-1) (bucket
// index |d|-1). Digit i goes to out[i*stride] (the window-major layout
// of the callers); the value is Σ digit_i·2^(ci).
func signedDigits(words []uint64, c, nw int, neg bool, out []int16, stride int) {
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
		out[i*stride] = int16(d)
	}
	if carry != 0 {
		panic("msm: signed digit recoding overflow")
	}
}

// DefaultWindowFast returns the heuristic window width for the fast path
// (signed windows; pts is the effective point count, 2n after the GLV split).
//
// The breakpoints come from a sweep of every width within ±3 of the
// optimum at each power of two from 2^6 to 2^21 effective points, random
// points and scalars, median of 3–25 runs, on 2 goroutines and on 1
// (AMD EPYC, 2 vCPUs, Go 1.24). Milliseconds on 2 goroutines from 2^10
// up, best first:
//
//	2^10  c=9 2.5   c=8 2.5   c=10 2.7
//	2^12  c=11 6.7  c=9 6.9   c=10 7.2
//	2^13  c=11 11.5 c=12 12.3 c=9 12.9
//	2^14  c=11 21.4 c=12 21.7 c=13 22.1
//	2^15  c=13 35.4 c=12 36.8 c=11 38.9
//	2^16  c=13 64.5 c=12 68.7 c=14 69.2
//	2^17  c=13 126  c=14 131  c=12 142  c=15 143
//	2^18  c=15 241  c=13 248  c=14 252
//	2^19  c=15 465  c=13 475  c=14 480
//	2^20  c=15 924  c=14 957  c=13 970
//	2^21  c=15 1803 c=14 1916 c=13 1941
//
// On one goroutine the table's width is the best or within 3 % of it,
// except at 2^15, where c=12 beat c=13 by 9 % in median (1 % in the
// fastest run). Two effects shape the table besides the usual trade of
// window count against buckets: from 16 groups of buckets (c ≥ 9) the
// grouped aggregation runs on affine buckets in lockstep and stops
// penalising wide windows, and widths whose window count 2 divides
// (c = 11, 13: 12 and 10 windows) need no chunked windows on two
// goroutines (see scheduleWindows). At 2^17 that is c=13 against c=12's
// 11 windows, one of them cut in halves. c=15 (9 windows) takes over
// once per-point work outweighs the cut window's extra aggregation; c is
// at most 15 because digits are int16.
func DefaultWindowFast(pts int) int {
	switch {
	case pts < 1<<7:
		return 4
	case pts < 1<<9:
		return 6
	case pts < 1<<10:
		return 7
	case pts < 1<<12:
		return 9
	case pts < 1<<15:
		return 11
	case pts < 1<<18:
		return 13
	default:
		return 15
	}
}

// msmFast computes the MSM with signed windows over the GLV split of every
// scalar: 2n effective points of half-length scalars.
func msmFast(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	n := len(points)
	nPts := 2 * n
	c := clampWindow(opt.Window, DefaultWindowFast(nPts))
	nw := signedWindows(ff.GLVBits, c)

	// The effective points are points[0:n] followed by φ(points)[0:n],
	// carrying the k₁ and the k₂ halves of the scalars.
	phis := make([]curve.G1Affine, n)
	digits := make([]int16, nw*nPts)
	parallelFor(n, opt.procs(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k1, k2 := ff.GLVSplit(&scalars[i])
			phis[i].Phi(&points[i])
			signedDigits(k1.W[:], c, nw, k1.Neg, digits[i:], nPts)
			signedDigits(k2.W[:], c, nw, k2.Neg, digits[n+i:], nPts)
		}
	})
	return bucketSum(points, phis, digits, c, nw, opt)
}

// msmNarrow computes the MSM of scalars below 2^bits, bits ≤ ff.GLVBits,
// with signed windows over the n points themselves: no GLV split, no
// φ(P), and signedWindows(bits, c) windows instead of
// signedWindows(ff.GLVBits, c) over twice the points.
//
// Its width is DefaultWindowFast(n), the GLV path's width for as many
// effective points. A sweep of every width within ±2 of it, random points
// and scalars below 2^bits, median of 7 runs on 2 goroutines (Intel Xeon,
// 2 vCPUs, Go 1.24), put it within run-to-run noise of the best width at
// 64 and 128 bits and 5–20 % behind at σ's μ+2 bits. Taking the
// narrowest width that needs as few windows there (up to 2 narrower)
// gained 1–4 % in a paired re-run, within noise, so the width stays the
// default. Milliseconds at the default width, at the best width, and on
// the GLV path:
//
//	n     bits  default     best        GLV
//	2^8   10    c=6  0.3    c=6  0.3    0.8
//	2^8   128   c=6  3.4    c=6  3.4    3.9
//	2^10  12    c=9  1.1    c=8  0.8    1.7
//	2^12  14    c=11 3.8    c=9  3.2    7.8
//	2^12  64    c=11 12.7   c=9  12.3   14.0
//	2^14  16    c=11 12.6   c=9  12.1   19.8
//	2^14  128   c=11 66.3   c=11 66.3   83.3
//	2^16  18    c=13 46.4   c=11 41.7   61.8
//	2^16  64    c=13 110.8  c=13 110.8  141.5
//	2^16  128   c=13 213    c=15 206    298
//	2^18  20    c=15 178    c=14 162    251
//	2^18  128   c=15 695    c=15 695    932
//
// The GLV path already skips a narrow scalar's zero digits; what the
// narrow path saves is the split, φ(P), the digit scan of the empty half
// and the aggregation of empty windows.
func msmNarrow(points []curve.G1Affine, scalars []ff.Fr, bits int, opt Options) curve.G1Jac {
	n := len(points)
	c := clampWindow(opt.Window, DefaultWindowFast(n))
	nw := signedWindows(bits, c)
	digits := make([]int16, nw*n)
	parallelFor(n, opt.procs(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := scalars[i].CanonicalLimbs()
			signedDigits(w[:], c, nw, false, digits[i:], n)
		}
	})
	return bucketSum(points, nil, digits, c, nw, opt)
}

// clampWindow returns w, or def when w is not set, within the widths the
// recoder supports: signed digits of magnitude up to 2^(c-1) must fit
// int16, and the recoder walks 64-bit words.
func clampWindow(w, def int) int {
	if w <= 0 {
		w = def
	}
	return min(max(w, 2), 15)
}

// bucketSum accumulates and aggregates the window buckets of the
// effective points lo ++ hi, whose digits are window-major —
// digits[w*nPts+j] is window w of effective point j, so each window task
// reads its digits as one run — and Horner-combines the window sums.
func bucketSum(lo, hi []curve.G1Affine, digits []int16, c, nw int, opt Options) curve.G1Jac {
	n := len(lo)
	nPts := n + len(hi)
	procs := opt.procs()
	tasks := scheduleWindows(nw, nPts, procs)
	partials := make([]curve.G1Jac, len(tasks))
	run := func(k int) {
		t := tasks[k]
		wd := digits[t.w*nPts : (t.w+1)*nPts]
		var acc bucketAcc
		if t.hi-t.lo >= minBatchAffinePoints {
			acc = newAffineAcc(1 << uint(c-1))
		} else {
			acc = make(jacAcc, 1<<uint(c-1))
		}
		if t.lo < n {
			end := min(t.hi, n)
			acc.addAll(lo[t.lo:end], wd[t.lo:end])
		}
		if t.hi > n {
			start := max(t.lo, n)
			acc.addAll(hi[start-n:t.hi-n], wd[start:t.hi])
		}
		partials[k] = acc.aggregate(opt.Aggregation)
	}
	if procs > 1 && len(tasks) > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, procs)
		for k := range tasks {
			wg.Add(1)
			sem <- struct{}{}
			go func(k int) {
				defer wg.Done()
				run(k)
				<-sem
			}(k)
		}
		wg.Wait()
	} else {
		for k := range tasks {
			run(k)
		}
	}

	// Merge chunk partials per window (task order — deterministic), then
	// Horner-combine the window sums.
	windowSums := make([]curve.G1Jac, nw)
	for k, t := range tasks {
		windowSums[t.w].Add(&windowSums[t.w], &partials[k])
	}
	var out curve.G1Jac
	return hornerCombine(windowSums, c, &out)
}

// windowTask is the bucket accumulation of window w over the effective
// points [lo, hi).
type windowTask struct{ w, lo, hi int }

// scheduleWindows lays out the accumulation tasks for procs goroutines:
// one whole window per task while the windows fill every goroutine, and
// the nw mod procs windows left over each cut into point chunks so the
// last round keeps every goroutine busy too. A chunk costs a bucket
// aggregation of its own, so nothing is cut when procs is 1, when procs
// divides nw, or below minChunkPoints points a chunk.
func scheduleWindows(nw, nPts, procs int) []windowTask {
	whole, chunks := nw, 1
	if r := nw % procs; procs > 1 && r != 0 {
		if k := min(procs/gcd(r, procs), nPts/minChunkPoints); k > 1 {
			whole, chunks = nw-r, k
		}
	}
	tasks := make([]windowTask, 0, whole+(nw-whole)*chunks)
	for w := 0; w < whole; w++ {
		tasks = append(tasks, windowTask{w, 0, nPts})
	}
	size := (nPts + chunks - 1) / chunks
	for w := whole; w < nw; w++ {
		for lo := 0; lo < nPts; lo += size {
			tasks = append(tasks, windowTask{w, lo, min(lo+size, nPts)})
		}
	}
	return tasks
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// bucketAcc collects the bucket updates of one window task: digit d of
// point P adds P to bucket d-1, or −P to bucket −d-1 when d < 0.
type bucketAcc interface {
	addAll(pts []curve.G1Affine, digits []int16)
	// aggregate returns Σ (i+1)·B_i over the buckets.
	aggregate(agg Aggregation) curve.G1Jac
}

// jacAcc is the bucket set of a small task: Jacobian mixed additions.
type jacAcc []curve.G1Jac

func (b jacAcc) addAll(pts []curve.G1Affine, digits []int16) {
	for i, d := range digits {
		switch {
		case d > 0:
			b[d-1].AddMixed(&pts[i])
		case d < 0:
			var np curve.G1Affine
			np.Neg(&pts[i])
			b[-d-1].AddMixed(&np)
		}
	}
}

func (b jacAcc) aggregate(agg Aggregation) curve.G1Jac { return aggregateBuckets(b, agg) }

func (a *affineAcc) addAll(pts []curve.G1Affine, digits []int16) {
	for i, d := range digits {
		switch {
		case d > 0:
			a.add(int32(d-1), &pts[i], false)
		case d < 0:
			a.add(int32(-d-1), &pts[i], true)
		}
	}
}

func (a *affineAcc) aggregate(agg Aggregation) curve.G1Jac {
	buckets := a.finish()
	if agg == AggregateGrouped && len(buckets) >= minLockstepGroups*GroupSize {
		return aggregateGroupedAffine(buckets, GroupSize)
	}
	jb := make([]curve.G1Jac, len(buckets))
	for i := range jb {
		jb[i].FromAffine(&buckets[i])
	}
	return aggregateBuckets(jb, agg)
}

// minLockstepGroups is the smallest group count aggregateGroupedAffine
// takes: below it, the 2G additions of a step are too few to pay for
// their shared inversion. Measured on one goroutine: from 16 groups
// (c = 9) the lockstep wins — 2^10 effective points at c=9 in 4.5 against
// 5.5 ms on Jacobian buckets, 2^11 at c=10 in 7.3 against 9.3 ms — while
// 8 groups (c = 8) gained nothing measurable.
const minLockstepGroups = 16

// aggregateGroupedAffine is aggregateGrouped over affine buckets with the
// groups advanced in lockstep. Step s adds the s-th bucket from the top
// of every group to the group's running sum, and the running sum as it
// stood before the step to the group's weighted sum: 2G independent
// affine additions sharing one inversion — the software shape of the
// pipelined group units of §4.2.2 — where the serial running sum pays two
// Jacobian additions per bucket. Reading the running sum before its update
// leaves each weighted sum one group sum short, added at the end.
// len(buckets) must be a multiple of g.
func aggregateGroupedAffine(buckets []curve.G1Affine, g int) curve.G1Jac {
	G := len(buckets) / g
	acc := make([]curve.G1Affine, 2*G) // running sums, then weighted sums
	adds := make([]curve.G1Affine, 2*G)
	idx := make([]int32, 2*G)
	denoms := make([]ff.Fp, 2*G)
	scratch := make([]ff.Fp, 2*G)
	for i := range acc {
		acc[i] = curve.G1Infinity()
	}
	for s := g - 1; s >= 0; s-- {
		// Only additions of a finite point are staged, so empty buckets —
		// every bucket of a window that structured scalars never reach —
		// cost no share of the batch.
		m := 0
		for k := 0; k < G; k++ {
			if b := &buckets[k*g+s]; !b.Inf {
				idx[m], adds[m] = int32(k), *b
				m++
			}
			if !acc[k].Inf {
				idx[m], adds[m] = int32(G+k), acc[k]
				m++
			}
		}
		curve.BatchAddMixed(acc, idx[:m], adds[:m], denoms, scratch)
	}
	groupSum := make([]curve.G1Jac, G)
	groupWeighted := make([]curve.G1Jac, G)
	for k := 0; k < G; k++ {
		groupSum[k].FromAffine(&acc[k])
		groupWeighted[k].FromAffine(&acc[G+k])
		groupWeighted[k].AddMixed(&acc[k])
	}
	return combineGroups(groupSum, groupWeighted, g)
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

// add stages p (negated when neg) for addition into bucket b. The point
// is copied once, to wherever it waits, and negated there; an empty
// bucket that nothing is staged for takes it without a batch slot.
func (a *affineAcc) add(b int32, p *curve.G1Affine, neg bool) {
	var dst *curve.G1Affine
	switch {
	case a.pending[b]:
		a.qIdx = append(a.qIdx, b)
		a.qPts = append(a.qPts, *p)
		dst = &a.qPts[len(a.qPts)-1]
	case a.slots[b].Inf:
		a.slots[b] = *p
		dst = &a.slots[b]
	default:
		a.stage(b, p)
		dst = &a.adds[len(a.adds)-1]
	}
	if neg {
		dst.Y.Neg(&dst.Y)
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
