package sumcheck

import (
	"sync"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// The fused sumcheck prover. Five changes over ProveReference, all
// transcript-preserving (field arithmetic is exact, so
// every rearrangement below yields bit-identical round polynomials):
//
//  1. Fused MLE Update: the post-challenge fold of every table (Eq. 2)
//     is not a separate pass. Round j's instance sweep reads round
//     j-1's tables, folds the pending challenge on the fly, writes the
//     folded pair into a ping-pong buffer, and feeds it straight into
//     the evaluation ladders — the Fig. 4 PE dataflow, where the MLE
//     Update and the per-MLE extensions share one streaming pass.
//  2. Claim-derived g(1): after round 0 the prover knows the running
//     claim c_j = g_{j-1}(r_{j-1}), and the sumcheck identity gives
//     g_j(1) = c_j − g_j(0), so the X=1 column of every later round is
//     one subtraction instead of a full instance sweep share.
//  3. Analytic eq factor: when every term carries the same eq(X, t)
//     polynomial (ZeroCheck/PermCheck, registered via AddEqMLE), the eq
//     table is never built or folded. Its bound prefix is a running
//     scalar P, its suffix a precomputed weight table, and its round
//     variable a linear factor L(X) of the round polynomial — so
//     g = P·L·h with deg(h) = deg−1, and the sweep evaluates one fewer
//     point (h is pinned down by deg values; the remaining g columns
//     are exact linear algebra on those).
//  4. Shared-factor extraction: non-eq indices appearing in every term
//     are factored out and multiplied once per evaluation point instead
//     of once per term; ±1 term coefficients skip their multiplication.
//  5. Allocation discipline: one persistent worker pool serves all
//     rounds; per-worker accumulator and ladder scratch is reused
//     across rounds, and fold buffers come from the poly.Scratch arena
//     — steady state, a whole proof performs a handful of allocations.
//
// Unlike ProveReference, the fused prover leaves vp's tables untouched:
// the first fold writes into scratch, so callers do not clone tables they
// want to keep.

// fusedMinChunk is the smallest per-worker instance range worth a
// dispatch; below it the tail rounds run inline on the coordinator.
const fusedMinChunk = 32

// redTerm is a term with the shared (and eq) factors removed.
type redTerm struct {
	coeff ff.Fr
	one   bool // coeff == 1: start the product at the first factor
	idx   []int
}

// fusedProver carries the per-proof state the persistent workers read.
// The coordinator mutates the per-round fields strictly between
// dispatches (the jobs channel send and wg.Wait provide the
// happens-before edges).
type fusedProver struct {
	vp     *VirtualPoly
	ne     int // deg+1 evaluation points of the full round polynomial
	nMLE   int
	shared []int     // factored indices, with multiplicity (never the eq index)
	terms  []redTerm // terms with shared and eq factors removed

	// Analytic-eq state (eqMode): p.eqIdx's table is virtual.
	eqMode bool
	eqIdx  int
	suffix []ff.Fr // this round's suffix weight table S_j (len = half)

	// Per-round sweep state.
	src     [][]ff.Fr // tables of the previous round (pre-fold) or, in round 0, the originals
	dst     [][]ff.Fr // fold targets (unused in round 0)
	fold    bool      // a challenge is pending: fold src into dst while sweeping
	r       ff.Fr     // the pending challenge
	maxT    int       // highest evaluation column the sweep computes
	skipOne bool      // skip X=1: it is derived from the running claim

	// Per-worker scratch, reused across rounds: worker w owns
	// acc[w*ne:(w+1)*ne] and lad[w*nMLE*ne:(w+1)*nMLE*ne].
	acc []ff.Fr
	lad []ff.Fr

	// Persistent worker pool (nil/unused when a single worker suffices).
	jobs chan [3]int
	wg   sync.WaitGroup
}

// ProveWith runs the sumcheck prover under an explicit execution context
// (worker count and arena; the zero value means GOMAXPROCS workers and the
// shared arena). Proof bytes are identical to ProveReference's for any
// worker count and arena — field arithmetic is exact, so the schedule
// cannot perturb the transcript.
func ProveWith(vp *VirtualPoly, tr *transcript.Transcript, opt poly.Options) ProverResult {
	if len(vp.MLEs) == 0 {
		panic("sumcheck: virtual polynomial has no MLEs")
	}
	mu := vp.NumVars
	deg := vp.Degree()
	ne := deg + 1
	nMLE := len(vp.MLEs)
	res := ProverResult{}
	if mu == 0 {
		res.FinalEvals = make([]ff.Fr, nMLE)
		for k := range vp.MLEs {
			res.FinalEvals[k] = vp.mle(k).Evals[0]
		}
		return res
	}
	arena := opt.Arena()

	p := &fusedProver{vp: vp, ne: ne, nMLE: nMLE, eqIdx: -1}
	p.eqMode = vp.eqIdx >= 0 && vp.eqPoint != nil && eqInEveryTerm(vp)
	if p.eqMode {
		p.eqIdx = vp.eqIdx
	} else {
		for k := range vp.MLEs {
			vp.mle(k) // annotation unusable: materialize and go generic
		}
	}
	p.factorShared()
	n := 1 << mu

	// Worker pool sized for the widest round; later rounds use a prefix.
	nw := clampWorkers(opt.Workers(), n/2)
	p.acc = arena.Get(nw * ne)
	p.lad = arena.Get(nw * nMLE * ne)

	// Ping-pong fold buffers: round 1 folds the originals into bufA
	// (n/2 per folded MLE), round 2 folds bufA into bufB (n/4), round 3
	// back into bufA, and so on — the originals are never written. The
	// virtual eq MLE is never folded, so in eqMode it gets no slot
	// (these are the proof's largest arena draws).
	nTab := nMLE
	if p.eqMode {
		nTab--
	}
	var bufA, bufB []ff.Fr
	tables := make([][]ff.Fr, 3*nMLE)
	orig, curA, curB := tables[:nMLE], tables[nMLE:2*nMLE], tables[2*nMLE:]
	if mu >= 2 {
		bufA = arena.Get(nTab * (n / 2))
	}
	if mu >= 3 {
		bufB = arena.Get(nTab * (n / 4))
	}
	slot := 0
	for k := range vp.MLEs {
		if k == p.eqIdx {
			continue // virtual in eqMode
		}
		orig[k] = vp.MLEs[k].Evals
		if mu >= 2 {
			curA[k] = bufA[slot*(n/2) : (slot+1)*(n/2)]
		}
		if mu >= 3 {
			curB[k] = bufB[slot*(n/4) : (slot+1)*(n/4)]
		}
		slot++
	}

	// Analytic-eq precomputation: the suffix weight levels (S_j =
	// eq-table of eqPoint[j+1:], all μ levels in one arena buffer), the
	// extrapolation basis ℓ_j(deg) over nodes 0..deg-1, and the running
	// prefix scalar P.
	var suffixBuf []ff.Fr
	var levelOff []int
	var basisDeg []ff.Fr
	var prefixP, l0, dL ff.Fr
	var lvals []ff.Fr
	if p.eqMode {
		suffixBuf = arena.Get(n - 1)
		levelOff = make([]int, mu)
		off := 0
		for j := 0; j < mu; j++ {
			levelOff[j] = off
			off += 1 << (mu - j - 1)
		}
		// Build levels back to front: S_{μ-1} = [1];
		// S_{j}[2y+b] = eq1(eqPoint[j+1], b) · S_{j+1}[y].
		suffixBuf[levelOff[mu-1]].SetOne()
		for j := mu - 2; j >= 0; j-- {
			s := &vp.eqPoint[j+1]
			prev := suffixBuf[levelOff[j+1] : levelOff[j+1]+1<<(mu-j-2)]
			cur := suffixBuf[levelOff[j] : levelOff[j]+1<<(mu-j-1)]
			var hi ff.Fr
			for y := range prev {
				hi.Mul(&prev[y], s)
				cur[2*y+1] = hi
				cur[2*y].Sub(&prev[y], &hi)
			}
		}
		basisDeg = extrapolationBasis(deg)
		prefixP.SetOne()
		lvals = make([]ff.Fr, ne)
	}

	// Persistent workers for the whole protocol.
	if nw > 1 {
		p.jobs = make(chan [3]int)
		for i := 0; i < nw; i++ {
			go func() {
				for j := range p.jobs {
					p.sweep(j[0], j[1], j[2])
					p.wg.Done()
				}
			}()
		}
		defer close(p.jobs)
	}

	// One backing array for every round polynomial.
	evalsBacking := make([]ff.Fr, mu*ne)
	res.Proof.Rounds = make([]RoundPoly, 0, mu)
	res.Challenges = make([]ff.Fr, 0, mu)

	interp := newClaimInterpolator(deg)
	var claim ff.Fr
	cur := orig // tables holding round j-1's state (pre-fold)
	for round := 0; round < mu; round++ {
		half := (n >> round) / 2
		p.src = cur
		p.fold = round > 0
		if p.fold {
			// Alternate fold targets; sizes shrink so prefixes fit.
			if round%2 == 1 {
				p.dst = curA
			} else {
				p.dst = curB
			}
		}
		p.skipOne = round > 0 && ne >= 2
		p.maxT = deg
		var pl1 ff.Fr
		if p.eqMode {
			// g = P·L·h with L(X) = eq1(t_round, X): the sweep computes
			// h, whose degree is one lower, at nodes {0..deg-1} (round
			// 0) or {0,2..deg-1} (h(1) recovered from the claim-derived
			// g(1) — unless P·L(1) is zero, where the sweep computes
			// the top column directly instead).
			p.suffix = suffixBuf[levelOff[round] : levelOff[round]+half]
			t := &vp.eqPoint[round]
			l0.SetOne()
			l0.Sub(&l0, t) // L(0) = 1-t
			dL.Sub(t, &l0) // L(X+1)-L(X) = 2t-1
			lvals[0] = l0
			for x := 1; x < ne; x++ {
				lvals[x].Add(&lvals[x-1], &dL)
			}
			pl1.Mul(&prefixP, &lvals[1])
			if deg >= 1 {
				p.maxT = deg - 1
				if p.skipOne && pl1.IsZero() && deg >= 2 {
					p.maxT = deg // no-division fallback: compute the top column
				}
			}
		}

		// Dispatch the instance sweep.
		rw := clampWorkers(nw, half)
		if rw <= 1 || half < 2*fusedMinChunk {
			p.sweep(0, 0, half)
			rw = 1
		} else {
			chunk := (half + rw - 1) / rw
			for w := 0; w < rw; w++ {
				lo, hi := w*chunk, (w+1)*chunk
				if hi > half {
					hi = half
				}
				if lo >= hi {
					rw = w
					break
				}
				p.wg.Add(1)
				p.jobs <- [3]int{w, lo, hi}
			}
			p.wg.Wait()
		}

		// Merge per-worker accumulators (exact arithmetic: any order
		// yields the same field elements; worker order keeps it tidy).
		evals := evalsBacking[round*ne : (round+1)*ne]
		for t := 0; t <= p.maxT; t++ {
			evals[t] = p.acc[t]
		}
		for w := 1; w < rw; w++ {
			a := p.acc[w*ne : (w+1)*ne]
			for t := 0; t <= p.maxT; t++ {
				evals[t].Add(&evals[t], &a[t])
			}
		}

		if p.eqMode {
			// evals currently holds h at the computed nodes; lift to
			// g(t) = P·L(t)·h(t) and fill the derived columns.
			finishEqRound(evals, lvals, &prefixP, &pl1, &claim, basisDeg, deg, p.maxT, p.skipOne)
		} else if p.skipOne {
			evals[1].Sub(&claim, &evals[0])
		}

		tr.AppendFrs("sumcheck.round", evals)
		r := tr.ChallengeFr("sumcheck.r")
		res.Proof.Rounds = append(res.Proof.Rounds, RoundPoly{Evals: evals})
		res.Challenges = append(res.Challenges, r)
		claim = interp.at(evals, &r)
		p.r = r
		if p.eqMode {
			// P ← P·eq1(t_round, r): 2tr − t − r + 1.
			t := &vp.eqPoint[round]
			var e, u ff.Fr
			e.Mul(t, &r)
			e.Double(&e)
			u.Add(t, &r)
			e.Sub(&e, &u)
			var one ff.Fr
			one.SetOne()
			e.Add(&e, &one)
			prefixP.Mul(&prefixP, &e)
		}

		// The table the NEXT round folds is the one this round's sweep
		// materialized (or, after round 0, still the originals).
		if round > 0 {
			cur = p.dst
		}
	}

	// The final fold (challenge r_{mu-1} over the two-entry tables)
	// yields each MLE's evaluation at the full sumcheck point; the
	// virtual eq factor's evaluation is its fully bound prefix P.
	res.FinalEvals = make([]ff.Fr, nMLE)
	var d ff.Fr
	for k := 0; k < nMLE; k++ {
		if k == p.eqIdx {
			res.FinalEvals[k] = prefixP
			continue
		}
		t := cur[k]
		d.Sub(&t[1], &t[0])
		d.Mul(&d, &p.r)
		res.FinalEvals[k].Add(&t[0], &d)
	}

	arena.Put(p.acc)
	arena.Put(p.lad)
	if bufA != nil {
		arena.Put(bufA)
	}
	if bufB != nil {
		arena.Put(bufB)
	}
	if suffixBuf != nil {
		arena.Put(suffixBuf)
	}
	return res
}

// eqInEveryTerm reports whether the annotated eq MLE appears exactly
// once in every term — the shape the analytic-eq path handles.
func eqInEveryTerm(vp *VirtualPoly) bool {
	if len(vp.Terms) == 0 {
		return false
	}
	for _, t := range vp.Terms {
		cnt := 0
		for _, k := range t.Indices {
			if k == vp.eqIdx {
				cnt++
			}
		}
		if cnt != 1 {
			return false
		}
	}
	return true
}

// finishEqRound lifts the merged h-node sums into the g columns:
// g(t) = P·L(t)·h(t), with g(1) claim-derived, h(1) recovered by the
// one division of the round when needed, and the top column
// extrapolated through the precomputed Lagrange basis. Every derived
// value is exact linear algebra over the computed nodes, so the
// transcript matches the all-columns evaluation bit for bit.
func finishEqRound(evals, lvals []ff.Fr, prefixP, pl1, claim *ff.Fr, basisDeg []ff.Fr, deg, maxT int, skipOne bool) {
	var pl, tmp ff.Fr
	scale := func(t int) {
		pl.Mul(prefixP, &lvals[t])
		evals[t].Mul(&evals[t], &pl)
	}
	if deg == 0 {
		// Constant round polynomial: the single column is the sum itself
		// times the bound eq prefix.
		evals[0].Mul(&evals[0], prefixP)
		return
	}
	dh := deg - 1
	extrapolate := func() {
		// h(deg) = Σ_j ℓ_j(deg)·h(j) over nodes 0..dh; evals[0..dh]
		// hold h at this point.
		var top ff.Fr
		for j := 0; j <= dh; j++ {
			tmp.Mul(&basisDeg[j], &evals[j])
			top.Add(&top, &tmp)
		}
		evals[deg] = top
	}
	switch {
	case !skipOne:
		// Round 0: h computed at 0..dh; the top column extrapolates.
		extrapolate()
		for t := 0; t <= deg; t++ {
			scale(t)
		}
	case maxT == deg:
		// No-division fallback (P·L(1) = 0): h computed at {0,2..deg}.
		for t := 0; t <= deg; t++ {
			if t == 1 {
				continue
			}
			scale(t)
		}
		evals[1].Sub(claim, &evals[0])
	case dh == 0:
		// Degree-1 rounds: both columns follow from h(0) and the claim.
		scale(0)
		evals[1].Sub(claim, &evals[0])
	default:
		// Division mode: h computed at {0,2..dh}. g(0) scales first,
		// g(1) = claim − g(0), and h(1) = g(1)/(P·L(1)) — the round's
		// one division — pins h down for the extrapolated top column.
		var g0, g1, inv ff.Fr
		pl.Mul(prefixP, &lvals[0])
		g0.Mul(&evals[0], &pl)
		g1.Sub(claim, &g0)
		inv.Inverse(pl1)
		evals[1].Mul(&g1, &inv) // h(1)
		extrapolate()
		for t := 2; t <= deg; t++ {
			scale(t)
		}
		evals[0] = g0
		evals[1] = g1
	}
}

// factorShared splits vp.Terms into the factors every term shares (with
// multiplicity — beyond the analytically handled eq factor) and the
// per-term remainders.
func (p *fusedProver) factorShared() {
	terms := p.vp.Terms
	if len(terms) == 0 {
		return
	}
	ints := make([]int, 3*p.nMLE)
	minCnt, cnt, remaining := ints[:p.nMLE], ints[p.nMLE:2*p.nMLE], ints[2*p.nMLE:]
	total := 0
	for ti, t := range terms {
		total += len(t.Indices)
		for i := range cnt {
			cnt[i] = 0
		}
		for _, k := range t.Indices {
			cnt[k]++
		}
		if p.eqMode {
			cnt[p.eqIdx]-- // the eq factor is handled analytically
			total--
		}
		if ti == 0 {
			copy(minCnt, cnt)
			continue
		}
		for i := range minCnt {
			if cnt[i] < minCnt[i] {
				minCnt[i] = cnt[i]
			}
		}
	}
	nShared := 0
	for _, c := range minCnt {
		nShared += c
	}
	// One flat index backing serves the shared multiset and every
	// reduced term.
	flat := make([]int, nShared+total-nShared*len(terms))
	p.shared = flat[:0:nShared]
	for i, c := range minCnt {
		for j := 0; j < c; j++ {
			p.shared = append(p.shared, i)
		}
	}
	one := ff.FrOne()
	p.terms = make([]redTerm, len(terms))
	rest := flat[nShared:]
	for ti, t := range terms {
		copy(remaining, minCnt)
		if p.eqMode {
			remaining[p.eqIdx]++ // strip the eq occurrence too
		}
		rt := &p.terms[ti]
		rt.coeff = t.Coeff
		rt.one = t.Coeff.Equal(&one)
		kept := 0
		for _, k := range t.Indices {
			if remaining[k] > 0 {
				remaining[k]--
				continue
			}
			rest[kept] = k
			kept++
		}
		rt.idx = rest[:kept:kept]
		rest = rest[kept:]
	}
}

// sweep processes hypercube instances [lo, hi) for the current round on
// worker w: folds the pending challenge into this round's tables (when
// one is pending), fills the per-MLE evaluation ladders up to maxT, and
// accumulates every term product — weighted by the eq suffix in eqMode
// — into the worker's accumulator.
func (p *fusedProver) sweep(w, lo, hi int) {
	ne := p.ne
	acc := p.acc[w*ne : (w+1)*ne]
	for t := range acc {
		acc[t].SetZero()
	}
	lad := p.lad[w*p.nMLE*ne : (w+1)*p.nMLE*ne]
	var d, e0, e1, inner, prod ff.Fr
	for i := lo; i < hi; i++ {
		// Per-MLE evaluation ladders (Fig. 4 "Per-MLE Evaluations"),
		// fused with the pending MLE Update (Eq. 2).
		for k := 0; k < p.nMLE; k++ {
			if k == p.eqIdx {
				continue // virtual: no table, no fold, no ladder
			}
			if p.fold {
				s := p.src[k]
				d.Sub(&s[4*i+1], &s[4*i])
				d.Mul(&d, &p.r)
				e0.Add(&s[4*i], &d)
				d.Sub(&s[4*i+3], &s[4*i+2])
				d.Mul(&d, &p.r)
				e1.Add(&s[4*i+2], &d)
				dst := p.dst[k]
				dst[2*i] = e0
				dst[2*i+1] = e1
			} else {
				s := p.src[k]
				e0 = s[2*i]
				e1 = s[2*i+1]
			}
			b := k * ne
			lad[b] = e0
			if p.maxT >= 1 {
				lad[b+1] = e1
				d.Sub(&e1, &e0)
				for t := 2; t <= p.maxT; t++ {
					lad[b+t].Add(&lad[b+t-1], &d)
				}
			}
		}
		// Per-point products: reduced terms summed, then the shared
		// factors applied once (distributivity is exact in F_r, so this
		// equals the reference's per-term products bit for bit).
		for t := 0; t <= p.maxT; t++ {
			if t == 1 && p.skipOne {
				continue
			}
			inner.SetZero()
			for ti := range p.terms {
				rt := &p.terms[ti]
				if len(rt.idx) == 0 {
					inner.Add(&inner, &rt.coeff)
					continue
				}
				if rt.one {
					prod = lad[rt.idx[0]*ne+t]
					for _, k := range rt.idx[1:] {
						prod.Mul(&prod, &lad[k*ne+t])
					}
				} else {
					prod = rt.coeff
					for _, k := range rt.idx {
						prod.Mul(&prod, &lad[k*ne+t])
					}
				}
				inner.Add(&inner, &prod)
			}
			for _, s := range p.shared {
				inner.Mul(&inner, &lad[s*ne+t])
			}
			if p.eqMode {
				inner.Mul(&inner, &p.suffix[i])
			}
			acc[t].Add(&acc[t], &inner)
		}
	}
}

// extrapolationBasis returns ℓ_j(d) for the Lagrange nodes 0..d-1 — the
// exact coefficients lifting h's computed nodes to its top column.
func extrapolationBasis(d int) []ff.Fr {
	dh := d - 1
	if dh < 0 {
		return nil
	}
	basis := make([]ff.Fr, dh+1)
	den := make([]ff.Fr, dh+1)
	part := make([]ff.Fr, dh+2)
	part[0].SetOne()
	for j := 0; j <= dh; j++ {
		// numerator Π_{k≠j}(d−k), denominator Π_{k≠j}(j−k)
		var num ff.Fr
		num.SetOne()
		den[j].SetOne()
		for k := 0; k <= dh; k++ {
			if k == j {
				continue
			}
			var v ff.Fr
			v.SetInt64(int64(d - k))
			num.Mul(&num, &v)
			v.SetInt64(int64(j - k))
			den[j].Mul(&den[j], &v)
		}
		basis[j] = num
		part[j+1].Mul(&part[j], &den[j])
	}
	var inv ff.Fr
	inv.Inverse(&part[dh+1])
	for j := dh; j >= 0; j-- {
		var dj ff.Fr
		dj.Mul(&inv, &part[j])
		inv.Mul(&inv, &den[j])
		basis[j].Mul(&basis[j], &dj)
	}
	return basis
}

// claimInterpolator evaluates a round polynomial (given by its values at
// X = 0..d) at the drawn challenge — the running claim the next round's
// g(1) is derived from. Same math as InterpolateAt, but the d+1
// denominators share one Montgomery-batched inversion and all scratch is
// preallocated, so the per-round cost is one field inversion plus O(d)
// multiplications.
type claimInterpolator struct {
	w     []ff.Fr // barycentric weights w_j = Π_{k≠j}(j-k), precomputed
	diffs []ff.Fr
	den   []ff.Fr
	part  []ff.Fr
}

func newClaimInterpolator(d int) claimInterpolator {
	backing := make([]ff.Fr, 4*(d+1)+1)
	ci := claimInterpolator{
		w:     backing[:d+1],
		diffs: backing[d+1 : 2*(d+1)],
		den:   backing[2*(d+1) : 3*(d+1)],
		part:  backing[3*(d+1):],
	}
	for j := 0; j <= d; j++ {
		ci.w[j].SetOne()
		for k := 0; k <= d; k++ {
			if k == j {
				continue
			}
			var jk ff.Fr
			jk.SetInt64(int64(j - k))
			ci.w[j].Mul(&ci.w[j], &jk)
		}
	}
	return ci
}

// at evaluates the polynomial through evals at r.
func (ci *claimInterpolator) at(evals []ff.Fr, r *ff.Fr) ff.Fr {
	d := len(evals) - 1
	var full ff.Fr
	full.SetOne()
	for k := 0; k <= d; k++ {
		pk := ff.NewFr(uint64(k))
		ci.diffs[k].Sub(r, &pk)
		if ci.diffs[k].IsZero() {
			// r landed on a sample point (probability ~d/2^255).
			return evals[k]
		}
		full.Mul(&full, &ci.diffs[k])
	}
	// den_j = diffs_j·w_j, inverted as a batch: part holds running
	// products, one Inverse unwinds them all.
	ci.part[0].SetOne()
	for j := 0; j <= d; j++ {
		ci.den[j].Mul(&ci.diffs[j], &ci.w[j])
		ci.part[j+1].Mul(&ci.part[j], &ci.den[j])
	}
	var inv ff.Fr
	inv.Inverse(&ci.part[d+1])
	var out, term ff.Fr
	for j := d; j >= 0; j-- {
		term.Mul(&inv, &ci.part[j]) // den_j^{-1}
		inv.Mul(&inv, &ci.den[j])
		term.Mul(&term, &full)
		term.Mul(&term, &evals[j])
		out.Add(&out, &term)
	}
	return out
}
