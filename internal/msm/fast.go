package msm

import (
	"cmp"
	"slices"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/par"
)

// The bucket MSM routes: signed-digit windows, GLV splitting (or, for
// narrow scalars, none) and batch-affine bucket accumulation and
// aggregation, with the buckets of every job of an MSMs call in one
// schedule so no goroutine idles and no inversion is shared by a handful
// of updates.
//
// Pipeline:
//
//  1. Each job's dense scalars become a plan: every scalar is split
//     through the GLV endomorphism (ff.GLVSplit) and both half-scalars
//     recoded into carry-corrected signed window digits in
//     [-2^(c-1), 2^(c-1)) — signedWindows(128, c) of them, no idle carry
//     window; a negative digit adds the negated point, so only 2^(c-1)
//     buckets per window are needed. The narrow route recodes each scalar
//     whole into signedWindows(bits, c) digits instead.
//  2. schedule turns the plans into tasks. A plan with at least
//     minWindowTaskBuckets buckets a window (c ≥ 11 at the default
//     widths: 2^12 effective points and up) runs each window as a task of
//     its own, the windows left over after the last full round of
//     goroutines cut into point chunks (scheduleWindows). The windows of
//     every smaller plan are blocks: whole (plan, window) bucket sets,
//     dealt to at most Procs block tasks balanced by update count. A
//     task's blocks sit side by side in one bucket array.
//  3. Each task accumulates its pieces in affine coordinates under
//     Montgomery batch inversion (affineAcc), point by point across the
//     windows of a plan, in passes of at most maxPassBuckets buckets. A
//     block task's batches fill to batchAddSize distinct buckets across
//     its blocks, whatever 2^(c-1) is.
//  4. Each pass aggregates all its pieces at once: Σ (i+1)·B_i per piece,
//     the groups of every piece advanced in lockstep under shared
//     inversions (aggregateGroupedAffine) once the pass holds
//     minLockstepGroups groups, Jacobian running sums below. Chunk
//     partials merge per window in piece order (deterministic), and each
//     plan's window sums are Horner-combined into its job's result.
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

// minWindowTaskBuckets is the smallest bucket count a window that runs as
// a task of its own: from here one window fills whole batches of
// batchAddSize distinct buckets by itself. Windows of fewer buckets are
// blocks that share their task's batches with the task's other blocks.
const minWindowTaskBuckets = 512

// minBlockTaskUpdates is the smallest update count worth a block task of
// its own: every task pays its own aggregation (one inversion per
// lockstep step) and goroutine, which a few hundred updates do not repay.
const minBlockTaskUpdates = 2 * batchAddSize

// maxPassBuckets bounds the buckets a block task holds at once: its
// blocks are accumulated and aggregated in passes of at most this many,
// which keeps a worker's scratch near a window task's (a pass costs one
// more lockstep aggregation, ~16 shared inversions). Two batches' worth
// still fills every batch with distinct buckets.
const maxPassBuckets = 2 * batchAddSize

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
//
// Below 2^12 effective points the windows are blocks (see schedule).
// Under them the widths below 2^4 and from 2^10 effective points came
// out one narrower than before (c=3 against 4: 267 against 301 µs at
// n = 1; c=8 against 9: 6.6 against 7.0 ms at n = 512; medians of 21).
// One MSM then costs, in µs per point of random full-width input on
// 2 goroutines (Intel Xeon, 2 vCPUs, Go 1.24; median of 3 runs of 15),
// before block tasks and after:
//
//	n       1    2    4   8  16  32  64 128 256 512 1024 2048 4096
//	before  545  298  181 96 65  44  33  34  22  17  15   11   9.8
//	after   340  186  126 84 62  36  28  20  16  12  11   10   8.8
//
// The jobs of one MSMs call share their blocks' batches, passes and
// goroutines: the ten MSMs of a μ = 10 opening chain (2^9 … 1 points)
// take ≈ 16 ms in one call, 15.6 µs per point, against 18.5–20 ms one
// call each and 25.5 ms before.
func DefaultWindowFast(pts int) int {
	switch {
	case pts < 1<<4:
		return 3
	case pts < 1<<7:
		return 4
	case pts < 1<<9:
		return 6
	case pts < 1<<10:
		return 7
	case pts < 1<<12:
		return 8
	case pts < 1<<15:
		return 11
	case pts < 1<<18:
		return 13
	default:
		return 15
	}
}

// plan is the bucket MSM of one job's dense scalars: the effective points
// lo ++ hi and their window-major signed digits — digits[w*nPts+j] is
// window w of effective point j, so each window reads its digits as one
// run.
type plan struct {
	job    int
	lo, hi []curve.G1Affine
	digits []int16
	c, nw  int
}

func (p *plan) nPts() int    { return len(p.lo) + len(p.hi) }
func (p *plan) buckets() int { return 1 << (p.c - 1) }

// minParallelRecode is the smallest plan whose recoding is spread over
// goroutines.
const minParallelRecode = 256

// glvPlan recodes a dense job with signed windows over the GLV split of
// every scalar: 2n effective points of half-length scalars.
func glvPlan(job int, points []curve.G1Affine, scalars []ff.Fr, opt Options) plan {
	n := len(points)
	nPts := 2 * n
	c := clampWindow(opt.Window, DefaultWindowFast(nPts))
	nw := signedWindows(ff.GLVBits, c)

	// The effective points are points[0:n] followed by φ(points)[0:n],
	// carrying the k₁ and the k₂ halves of the scalars.
	phis := make([]curve.G1Affine, n)
	digits := make([]int16, nw*nPts)
	par.Range(n, recodeProcs(n, opt), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k1, k2 := ff.GLVSplit(&scalars[i])
			phis[i].Phi(&points[i])
			signedDigits(k1.W[:], c, nw, k1.Neg, digits[i:], nPts)
			signedDigits(k2.W[:], c, nw, k2.Neg, digits[n+i:], nPts)
		}
	})
	return plan{job: job, lo: points, hi: phis, digits: digits, c: c, nw: nw}
}

// narrowPlan recodes a job of scalars below 2^bits, bits ≤ ff.GLVBits,
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
func narrowPlan(job int, points []curve.G1Affine, scalars []ff.Fr, bits int, opt Options) plan {
	n := len(points)
	c := clampWindow(opt.Window, DefaultWindowFast(n))
	nw := signedWindows(bits, c)
	digits := make([]int16, nw*n)
	par.Range(n, recodeProcs(n, opt), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			w := scalars[i].CanonicalLimbs()
			signedDigits(w[:], c, nw, false, digits[i:], n)
		}
	})
	return plan{job: job, lo: points, digits: digits, c: c, nw: nw}
}

// recodeProcs is the goroutine budget for recoding n scalars.
func recodeProcs(n int, opt Options) int {
	if n < minParallelRecode {
		return 1
	}
	return opt.procs()
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

// bucketSums accumulates and aggregates the buckets of every plan in one
// schedule and adds each plan's Horner-combined window sums to
// out[plan.job]. Workers take tasks in schedule order and keep their
// accumulators from task to task.
func bucketSums(plans []plan, out []curve.G1Jac, opt Options) {
	procs := opt.procs()
	pieces, ends := schedule(plans, procs)
	partials := make([]curve.G1Jac, len(pieces))
	par.Each(len(ends), procs, func() *taskScratch { return new(taskScratch) }, func(s *taskScratch, k int) {
		lo := 0
		if k > 0 {
			lo = ends[k-1]
		}
		s.run(plans, pieces[lo:ends[k]], partials[lo:ends[k]])
	})

	// Merge chunk partials per window in piece order (deterministic),
	// then Horner-combine each plan's window sums.
	off := make([]int, len(plans)+1)
	for i := range plans {
		off[i+1] = off[i] + plans[i].nw
	}
	windowSums := make([]curve.G1Jac, off[len(plans)])
	for i, pc := range pieces {
		ws := &windowSums[off[pc.p]+pc.w]
		ws.Add(ws, &partials[i])
	}
	for i := range plans {
		var sum curve.G1Jac
		hornerCombine(windowSums[off[i]:off[i+1]], plans[i].c, &sum)
		o := &out[plans[i].job]
		o.Add(o, &sum)
	}
}

// piece is the bucket accumulation of window w of plan p over the
// effective points [lo, hi).
type piece struct{ p, w, lo, hi int }

// windowTask is window w over effective points [lo, hi), as
// scheduleWindows lays out the windows of one plan.
type windowTask struct{ w, lo, hi int }

// schedule lays out the tasks of one bucketSums call: task k is
// pieces[ends[k-1]:ends[k]]. Window tasks come first, one piece each, in
// plan order; then the block tasks, each a set of whole windows of plans
// with fewer than minWindowTaskBuckets buckets, dealt largest first to
// the least loaded of T tasks, so their update counts differ by at most
// one block. T is at most procs and gives each task minBlockTaskUpdates.
func schedule(plans []plan, procs int) (pieces []piece, ends []int) {
	var blocks []piece
	total := 0
	for p := range plans {
		pl := &plans[p]
		if pl.buckets() < minWindowTaskBuckets {
			for w := 0; w < pl.nw; w++ {
				blocks = append(blocks, piece{p, w, 0, pl.nPts()})
			}
			total += pl.nw * pl.nPts()
			continue
		}
		for _, t := range scheduleWindows(pl.nw, pl.nPts(), procs) {
			pieces = append(pieces, piece{p, t.w, t.lo, t.hi})
			ends = append(ends, len(pieces))
		}
	}
	if len(blocks) == 0 {
		return pieces, ends
	}
	nt := min(procs, len(blocks), max(1, total/minBlockTaskUpdates))
	load := make([]int, nt)
	owner := make([]int, len(blocks))
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(blocks[b].hi, blocks[a].hi)
	})
	for _, i := range order {
		t := 0
		for u := range load {
			if load[u] < load[t] {
				t = u
			}
		}
		owner[i] = t
		load[t] += blocks[i].hi
	}
	for t := range nt {
		for i, b := range blocks {
			if owner[i] == t {
				pieces = append(pieces, b)
			}
		}
		ends = append(ends, len(pieces))
	}
	return pieces, ends
}

// scheduleWindows lays out the window tasks of one plan for procs
// goroutines: one whole window per task while the windows fill every
// goroutine, and the nw mod procs windows left over each cut into point
// chunks so the last round keeps every goroutine busy too. A chunk costs
// a bucket aggregation of its own, so nothing is cut when procs is 1,
// when procs divides nw, or below minChunkPoints points a chunk.
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

// taskScratch is one worker's accumulator and aggregation scratch, kept
// from task to task and grown to the largest task it runs.
type taskScratch struct {
	acc   affineAcc
	agg   aggScratch
	sizes []int
	bases []int32
}

// run accumulates and aggregates the pieces of one task in passes of at
// most maxPassBuckets buckets (a wider window is a pass of its own),
// writing each piece's Σ (i+1)·B_i to partials.
func (s *taskScratch) run(plans []plan, pieces []piece, partials []curve.G1Jac) {
	for len(pieces) > 0 {
		k, nb := 1, plans[pieces[0].p].buckets()
		for k < len(pieces) && nb+plans[pieces[k].p].buckets() <= maxPassBuckets {
			nb += plans[pieces[k].p].buckets()
			k++
		}
		s.pass(plans, pieces[:k], partials[:k])
		pieces, partials = pieces[k:], partials[k:]
	}
}

// pass accumulates pieces side by side in one affine bucket array and
// aggregates them in one lockstep pass.
func (s *taskScratch) pass(plans []plan, pieces []piece, partials []curve.G1Jac) {
	s.sizes, s.bases = s.sizes[:0], s.bases[:0]
	nb := 0
	for _, pc := range pieces {
		s.sizes = append(s.sizes, plans[pc.p].buckets())
		s.bases = append(s.bases, int32(nb))
		nb += plans[pc.p].buckets()
	}
	s.acc.reset(nb)
	for i := 0; i < len(pieces); {
		j := i + 1
		for j < len(pieces) && pieces[j].p == pieces[i].p {
			j++
		}
		plans[pieces[i].p].addRun(pieces[i:j], s.bases[i:j], &s.acc)
		i = j
	}
	s.agg.aggregate(s.acc.finish(), s.sizes, partials)
}

// addRun stages the updates of pieces of plan p that cover the same
// effective points (one chunk, or whole windows), point by point: a
// point's digits in the run's windows go to different blocks, so a batch
// fills with distinct buckets rather than parking the collisions of one
// window of few buckets on the conflict queue. Digit d of point P adds P
// to bucket base+d-1 of its piece, or −P to bucket base−d−1 when d < 0.
func (p *plan) addRun(pieces []piece, bases []int32, acc *affineAcc) {
	n, nPts := len(p.lo), p.nPts()
	for e := pieces[0].lo; e < pieces[0].hi; e++ {
		pt := p.pointAt(e, n)
		for k, pc := range pieces {
			switch d := p.digits[pc.w*nPts+e]; {
			case d > 0:
				acc.add(bases[k]+int32(d-1), pt, false)
			case d < 0:
				acc.add(bases[k]+int32(-d-1), pt, true)
			}
		}
	}
}

// pointAt returns effective point e: lo[e], or hi[e−n] past lo's n.
func (p *plan) pointAt(e, n int) *curve.G1Affine {
	if e < n {
		return &p.lo[e]
	}
	return &p.hi[e-n]
}

// minLockstepGroups is the smallest group count aggregateGroupedAffine
// takes: below it, the 2G additions of a step are too few to pay for
// their shared inversion. Measured on one goroutine: from 16 groups
// (c = 9) the lockstep wins — 2^10 effective points at c=9 in 4.5 against
// 5.5 ms on Jacobian buckets, 2^11 at c=10 in 7.3 against 9.3 ms — while
// 8 groups (c = 8) gained nothing measurable.
const minLockstepGroups = 16

// aggScratch is the reusable scratch of aggregateGroupedAffine.
type aggScratch struct {
	acc, adds              []curve.G1Affine
	idx                    []int32
	denoms, scratch        []ff.Fp
	groupSum, groupWeights []curve.G1Jac
	jac                    []curve.G1Jac
}

// aggregate sets sums[k] = Σ_i (i+1)·B_i over the k-th block of buckets,
// the blocks lying back to back with sizes[k] buckets each (a power of
// two): in lockstep when the blocks hold minLockstepGroups groups of
// GroupSize (or fewer, the whole block) buckets, else on Jacobian
// running sums block by block.
func (s *aggScratch) aggregate(buckets []curve.G1Affine, sizes []int, sums []curve.G1Jac) {
	groups := 0
	for _, nb := range sizes {
		groups += nb / min(GroupSize, nb)
	}
	if groups >= minLockstepGroups {
		s.aggregateGroupedAffine(buckets, sizes, sums)
		return
	}
	for k, nb := range sizes {
		s.jac = slices.Grow(s.jac[:0], nb)[:nb]
		for i := range s.jac {
			s.jac[i].FromAffine(&buckets[i])
		}
		sums[k] = aggregateGrouped(s.jac, GroupSize)
		buckets = buckets[nb:]
	}
}

// aggregateGroupedAffine is aggregateGrouped over affine buckets with the
// groups of every block advanced in lockstep. A block of nb buckets has
// groups of g = min(GroupSize, nb). Step s adds the s-th bucket from the
// bottom of every group longer than s to the group's running sum, and
// the running sum as it stood before the step to the group's weighted
// sum: up to 2G independent affine additions sharing one inversion — the
// software shape of the pipelined group units of §4.2.2 — where the
// serial running sum pays two Jacobian additions per bucket. Reading the
// running sum before its update leaves each weighted sum one group sum
// short, added at the end.
func (s *aggScratch) aggregateGroupedAffine(buckets []curve.G1Affine, sizes []int, sums []curve.G1Jac) {
	G := 0
	for _, nb := range sizes {
		G += nb / min(GroupSize, nb)
	}
	s.acc = slices.Grow(s.acc[:0], 2*G)[:2*G] // running sums, then weighted sums
	s.adds = slices.Grow(s.adds[:0], 2*G)[:2*G]
	s.idx = slices.Grow(s.idx[:0], 2*G)[:2*G]
	s.denoms = slices.Grow(s.denoms[:0], 2*G)[:2*G]
	s.scratch = slices.Grow(s.scratch[:0], 2*G)[:2*G]
	for i := range s.acc {
		s.acc[i] = curve.G1Infinity()
	}
	top := min(GroupSize, slices.Max(sizes))
	for st := top - 1; st >= 0; st-- {
		// Only additions of a finite point are staged, so empty buckets —
		// every bucket of a window that structured scalars never reach —
		// cost no share of the batch.
		m, k, base := 0, 0, 0
		for _, nb := range sizes {
			g := min(GroupSize, nb)
			if st < g {
				for gb := base; gb < base+nb; gb += g {
					if b := &buckets[gb+st]; !b.Inf {
						s.idx[m] = int32(k)
						setPoint(&s.adds[m], b, false)
						m++
					}
					if !s.acc[k].Inf {
						s.idx[m] = int32(G + k)
						setPoint(&s.adds[m], &s.acc[k], false)
						m++
					}
					k++
				}
			} else {
				k += nb / g
			}
			base += nb
		}
		curve.BatchAddMixed(s.acc, s.idx[:m], s.adds[:m], s.denoms, s.scratch)
	}
	s.groupSum = slices.Grow(s.groupSum[:0], G)[:G]
	s.groupWeights = slices.Grow(s.groupWeights[:0], G)[:G]
	for k := 0; k < G; k++ {
		s.groupSum[k].FromAffine(&s.acc[k])
		s.groupWeights[k].FromAffine(&s.acc[G+k])
		s.groupWeights[k].AddMixed(&s.acc[k])
	}
	k := 0
	for i, nb := range sizes {
		g := min(GroupSize, nb)
		ng := nb / g
		sums[i] = combineGroups(s.groupSum[k:k+ng], s.groupWeights[k:k+ng], g)
		k += ng
	}
}

// setPoint sets dst to src, or to −src when neg, field by field: a whole
// G1Affine is 104 bytes, which the compiler copies through
// runtime.duffcopy, and a negated point need not be copied first.
func setPoint(dst, src *curve.G1Affine, neg bool) {
	dst.X = src.X
	if neg {
		dst.Y.Neg(&src.Y)
	} else {
		dst.Y = src.Y
	}
	dst.Inf = src.Inf
}

// affineAcc stages bucket updates for curve.BatchAddMixed, which needs
// distinct targets within one call. An update whose bucket is already
// staged is parked on a conflict queue. A pass over the queue sends one
// parked point per free bucket to its bucket and adds the others of that
// bucket to each other in pairs, all inside the same shared inversions,
// so m points colliding on one bucket reduce as a tree — m additions in
// ~m/batch inversions — instead of one single-addition batch each. That
// is the shape of a selector commitment, whose scalars are all equal, and
// of a block of few buckets, whose points outnumber them.
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
	// The conflict queue parks updates by reference: an input point, or
	// a pair sum copied out of its slot into sums. Both are
	// double-buffered so a pass can queue for the next one without
	// aliasing what it reads; a parked pair sum outlives its buffer only
	// by being copied into the next.
	queue, queueAlt []parked
	sums, sumsAlt   []curve.G1Affine
	// mate[b] is the queue position of a point of bucket b waiting for
	// its pair during a pass, or -1.
	mate []int32
	// inversions counts the batches run — one field inversion each.
	inversions int
}

// parked is a queued update: bucket b gains *pt, or −*pt when neg; sum
// marks a pair sum, which lives in sums rather than in the input.
type parked struct {
	pt       *curve.G1Affine
	b        int32
	neg, sum bool
}

func newAffineAcc(nb int) *affineAcc {
	a := &affineAcc{}
	a.reset(nb)
	return a
}

// reset empties the accumulator for nb buckets, growing its buffers
// only past the largest size it has held.
func (a *affineAcc) reset(nb int) {
	// A batch of plain updates can hold at most one per bucket; a larger
	// threshold would only grow the conflict queue.
	batch := min(batchAddSize, nb)
	a.slots = slices.Grow(a.slots[:0], nb+batch)[:nb+batch]
	a.pending = slices.Grow(a.pending[:0], nb)[:nb]
	a.mate = slices.Grow(a.mate[:0], nb)[:nb]
	a.idx = slices.Grow(a.idx[:0], batch)
	a.adds = slices.Grow(a.adds[:0], batch)
	a.pairs = slices.Grow(a.pairs[:0], batch)
	a.denoms = slices.Grow(a.denoms[:0], batch)[:batch]
	a.scratch = slices.Grow(a.scratch[:0], batch)[:batch]
	a.queue, a.sums = a.queue[:0], a.sums[:0]
	a.nb, a.batch, a.inversions = nb, batch, 0
	for i := 0; i < nb; i++ {
		a.slots[i].Inf = true
		a.pending[i] = false
		a.mate[i] = -1
	}
}

// add stages p (negated when neg) for addition into bucket b: into an
// empty bucket that nothing is staged for directly, without a batch
// slot; into the batch when the bucket is free; onto the conflict queue,
// by reference, when it is not.
func (a *affineAcc) add(b int32, p *curve.G1Affine, neg bool) {
	switch {
	case a.pending[b]:
		a.queue = append(a.queue, parked{p, b, neg, false})
	case a.slots[b].Inf:
		setPoint(&a.slots[b], p, neg)
	default:
		a.stage(b, p, neg)
	}
	if len(a.idx) >= a.batch {
		a.runBatch() // batch full of distinct targets — best amortization
	} else if len(a.queue) >= 2*a.batch {
		a.reduceQueue() // enough parked points to fill a batch with pair sums
	}
}

// stage puts the update of bucket b by pt (negated when neg) into the
// current batch.
func (a *affineAcc) stage(b int32, pt *curve.G1Affine, neg bool) {
	a.pending[b] = true
	a.idx = append(a.idx, b)
	a.adds = a.adds[:len(a.adds)+1]
	setPoint(&a.adds[len(a.adds)-1], pt, neg)
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
			a.queue = append(a.queue, parked{a.keep(sum), b, false, true})
		}
	}
	a.idx = a.idx[:0]
	a.adds = a.adds[:0]
	a.pairs = a.pairs[:0]
}

// keep copies a pair sum into sums for the queue to reference. When sums
// grows, earlier references stay in its old array, which keeps its
// values: nothing writes to it again.
func (a *affineAcc) keep(p *curve.G1Affine) *curve.G1Affine {
	a.sums = append(a.sums, curve.G1Affine{})
	q := &a.sums[len(a.sums)-1]
	setPoint(q, p, false)
	return q
}

// reduceQueue makes one pass over the conflict queue. The batch is
// applied first, so every mark is clear and each queued bucket takes at
// least one point: a bucket's queue of m shrinks to at most m/2, whatever
// the distribution. The pass may leave a partly filled batch staged.
func (a *affineAcc) reduceQueue() {
	a.runBatch()
	a.queue, a.queueAlt = a.queueAlt[:0], a.queue
	a.sums, a.sumsAlt = a.sumsAlt[:0], a.sums
	for k, q := range a.queueAlt {
		switch m := a.mate[q.b]; {
		case !a.pending[q.b]:
			a.stage(q.b, q.pt, q.neg)
		case m < 0:
			a.mate[q.b] = int32(k)
		default:
			a.mate[q.b] = -1
			first := &a.queueAlt[m]
			setPoint(&a.slots[a.nb+len(a.pairs)], first.pt, first.neg)
			a.idx = append(a.idx, int32(a.nb+len(a.pairs)))
			a.adds = a.adds[:len(a.adds)+1]
			setPoint(&a.adds[len(a.adds)-1], q.pt, q.neg)
			a.pairs = append(a.pairs, q.b)
		}
		if len(a.idx) >= a.batch {
			a.runBatch()
		}
	}
	// Points left without a pair wait for the next pass; a pair sum
	// among them moves into the sums the next pass keeps.
	for k, q := range a.queueAlt {
		if a.mate[q.b] == int32(k) {
			a.mate[q.b] = -1
			if q.sum {
				q.pt = a.keep(q.pt)
			}
			a.queue = append(a.queue, q)
		}
	}
}

// finish applies everything staged or parked and returns the buckets.
func (a *affineAcc) finish() []curve.G1Affine {
	for a.runBatch(); len(a.queue) > 0; a.runBatch() {
		a.reduceQueue()
	}
	return a.slots[:a.nb]
}
