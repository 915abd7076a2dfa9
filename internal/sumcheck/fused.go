package sumcheck

import (
	"sync"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// The fused sumcheck prover. Six changes over ProveReference, all
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
//     scalar P, its suffix a weight table, and its round variable a
//     linear factor L(X) of the round polynomial — so g = P·L·h with
//     deg(h) = deg−1, and the sweep evaluates one fewer point (h is
//     pinned down by deg values; the remaining g columns are exact
//     linear algebra on those).
//  4. Shared-factor extraction: non-eq indices appearing in every term
//     are factored out and multiplied once per evaluation point instead
//     of once per term; ±1 term coefficients skip their multiplication.
//  5. Allocation discipline: one persistent worker pool serves all
//     rounds; per-worker accumulator and ladder scratch is reused
//     across rounds, and fold buffers come from the poly.Scratch arena
//     — steady state, a whole proof performs a handful of allocations.
//  6. Only folded tables are stored. Terms may carry different eq
//     factors (the OpenCheck: one per opening point); they are grouped
//     by factor and each group's g_e = P_e·L_e·h_e is lifted separately,
//     h_e computed at its own deg(h_e)+1 nodes. An eq factor keeps one
//     2^{μ-1} suffix weight table per distinct point[1:] — next round's
//     weights are pairwise sums of this round's — and none at all when
//     point[1:] is Boolean (its weights are one instance's indicator).
//     Affine factors (AddAffineMLE) are formed on the fly in the two
//     rounds that read originals. Each folded table draws exactly one
//     n/2 and one n/4 buffer.
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

// eqGroup is the terms sharing one eq factor (or, with a nil point, the
// terms carrying none). The sweep accumulates their h = Σ_i w[i]·Σ terms
// at nodes 0..maxT; the round polynomial contribution is P·L(X)·h(X).
type eqGroup struct {
	point   []ff.Fr // the eq factor's point; nil: no eq factor
	terms   []redTerm
	deg     int // degree of h
	maxT    int // highest node of h the sweep computes
	tab     int // index of the suffix weight table in weights; -1: none
	w       []ff.Fr
	boolean bool // point[1:] is Boolean: weight 1 at instance hot, else 0
	bits    int  // point[1:] as an index; this round's hot = bits>>round
	hot     int
	prefix  ff.Fr // P: eq1 over the bound coordinates
}

// fusedProver carries the per-proof state the persistent workers read.
// The coordinator mutates the per-round fields strictly between
// dispatches (the jobs channel send and wg.Wait provide the
// happens-before edges).
type fusedProver struct {
	vp     *VirtualPoly
	ne     int // deg+1 evaluation points of the full round polynomial
	nMLE   int
	live   []int // the MLEs with tables or fold buffers (every one but the analytic eq factors)
	shared []int // factored indices, with multiplicity (never an eq index)
	groups []eqGroup

	// Per-round sweep state.
	src     [][]ff.Fr // tables of the previous round (pre-fold) or, in round 0, the originals (nil: affine)
	dst     [][]ff.Fr // fold targets (unused in round 0)
	fold    bool      // a challenge is pending: fold src into dst while sweeping
	r       ff.Fr     // the pending challenge
	maxT    int       // highest evaluation column the sweep computes
	skipOne bool      // skip X=1: it is derived from the running claim

	// Per-worker scratch, reused across rounds: worker w owns
	// acc[w*nG*ne:(w+1)*nG*ne] (nG = len(groups)) and
	// lad[w*nMLE*ne:(w+1)*nMLE*ne].
	acc []ff.Fr
	lad []ff.Fr

	// Persistent worker pool (nil/unused when a single worker suffices).
	jobs chan [3]int
	wg   sync.WaitGroup
}

// intScratch hands out consecutive slices of one backing array, so the
// per-proof index tables cost one allocation.
type intScratch []int

func (s *intScratch) take(n int) []int {
	b := (*s)[:n:n]
	*s = (*s)[n:]
	return b
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
	n := 1 << mu

	// One backing for every index table of the proof: eqOf, live, the
	// grouping tables and factorShared's counts and reduced terms.
	nT, nIdx := len(vp.Terms), 0
	for _, t := range vp.Terms {
		nIdx += len(t.Indices)
	}
	sc := intScratch(make([]int, 2*nT+7*nMLE+4+nIdx))

	p := &fusedProver{vp: vp, ne: ne, nMLE: nMLE}
	eqOf, eqOK := termEqs(vp, sc.take(nT))
	isEq := func(k int) bool { return eqOK && vp.lazy[k].eq }
	p.live = sc.take(nMLE)[:0]
	for k := range vp.MLEs {
		if vp.lazy[k].eq && !eqOK {
			vp.mle(k) // a term holds two eq factors: materialize and fold
		}
		if !isEq(k) {
			p.live = append(p.live, k)
		}
	}
	p.groupTerms(eqOf, &sc)
	nG := len(p.groups)
	// One group carrying every term keeps the claim-derived g(1): the
	// plain sweep derives its column, the eq sweep divides by P·L(1).
	single := nG == 1
	eqSingle := single && p.groups[0].point != nil

	// Suffix weight tables: S_0 = eq-table of point[1:] for each distinct
	// non-Boolean point[1:], in arena buffers of n/2.
	var weights [][]ff.Fr
	for gi := range p.groups {
		g := &p.groups[gi]
		if g.point == nil {
			continue
		}
		g.prefix.SetOne()
		suffix := g.point[1:]
		if bits, ok := booleanIndex(suffix); ok {
			g.boolean, g.bits = true, bits
			continue
		}
		for gj := 0; gj < gi && g.tab < 0; gj++ {
			if h := &p.groups[gj]; h.tab >= 0 && equalFrs(h.point[1:], suffix) {
				g.tab = h.tab
			}
		}
		if g.tab < 0 {
			w := arena.Get(n / 2)
			poly.EqTableInto(w, suffix, opt)
			g.tab = len(weights)
			weights = append(weights, w)
		}
	}

	// Worker pool sized for the widest round; later rounds use a prefix.
	nw := clampWorkers(opt.Workers(), n/2)
	p.acc = arena.Get(nw * nG * ne)
	p.lad = arena.Get(nw * nMLE * ne)

	// Ping-pong fold buffers: round 1 folds the originals into curA (n/2
	// per folded MLE), round 2 folds curA into curB (n/4), round 3 back
	// into curA, and so on — the originals are never written. Each table
	// draws its own buffers, so the arena's power-of-two classes fit
	// exactly; analytic eq factors get none.
	tables := make([][]ff.Fr, 3*nMLE)
	orig, curA, curB := tables[:nMLE], tables[nMLE:2*nMLE], tables[2*nMLE:]
	for _, k := range p.live {
		if vp.MLEs[k] != nil {
			orig[k] = vp.MLEs[k].Evals
		}
		if mu >= 2 {
			curA[k] = arena.Get(n / 2)
		}
		if mu >= 3 {
			curB[k] = arena.Get(n / 4)
		}
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

	// One backing array for every round polynomial, the challenges, the
	// final evaluations, the claim interpolator and the column scratch:
	// the L(X) values of a single eq factor, or the h values and
	// difference table of several groups.
	frs := make([]ff.Fr, mu*ne+mu+nMLE+interpolatorLen(deg)+2*ne)
	evalsBacking, frs := frs[:mu*ne], frs[mu*ne:]
	res.Challenges, frs = frs[:0:mu], frs[mu:]
	res.FinalEvals, frs = frs[:nMLE:nMLE], frs[nMLE:]
	interp := newClaimInterpolator(deg, frs[:interpolatorLen(deg)])
	lvals, hx := frs[interpolatorLen(deg):][:ne], frs[interpolatorLen(deg):]
	res.Proof.Rounds = make([]RoundPoly, 0, mu)
	var basisDeg []ff.Fr
	if eqSingle {
		// The extrapolation basis ℓ_j(deg) over nodes 0..deg-1.
		basisDeg = extrapolationBasis(deg)
	}
	var l0, dL ff.Fr

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
		p.skipOne = single && round > 0 && ne >= 2
		p.maxT = 0
		for gi := range p.groups {
			g := &p.groups[gi]
			g.maxT = deg
			if !single {
				g.maxT = g.deg
			}
			if g.tab >= 0 {
				g.w = weights[g.tab][:half]
			}
			g.hot = g.bits >> round
		}
		var pl1 ff.Fr
		if eqSingle {
			// g = P·L·h with L(X) = eq1(t_round, X): the sweep computes
			// h, whose degree is one lower, at nodes {0..deg-1} (round
			// 0) or {0,2..deg-1} (h(1) recovered from the claim-derived
			// g(1) — unless P·L(1) is zero, where the sweep computes
			// the top column directly instead).
			g := &p.groups[0]
			eqLine(&g.point[round], &l0, &dL)
			lvals[0] = l0
			for x := 1; x < ne; x++ {
				lvals[x].Add(&lvals[x-1], &dL)
			}
			pl1.Mul(&g.prefix, &lvals[1])
			if deg >= 1 {
				g.maxT = deg - 1
				if p.skipOne && pl1.IsZero() && deg >= 2 {
					g.maxT = deg // no-division fallback: compute the top column
				}
			}
		}
		for gi := range p.groups {
			p.maxT = max(p.maxT, p.groups[gi].maxT)
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
		// yields the same field elements; worker order keeps it tidy)
		// and lift them into the round polynomial's columns.
		evals := evalsBacking[round*ne : (round+1)*ne]
		switch {
		case eqSingle:
			// evals holds h at the computed nodes; lift to
			// g(t) = P·L(t)·h(t) and fill the derived columns.
			g := &p.groups[0]
			p.merge(evals, 0, g.maxT, rw)
			finishEqRound(evals, lvals, &g.prefix, &pl1, &claim, basisDeg, deg, g.maxT, p.skipOne)
		case single:
			p.merge(evals, 0, p.maxT, rw)
			if p.skipOne {
				evals[1].Sub(&claim, &evals[0])
			}
		default:
			for t := range evals {
				evals[t].SetZero()
			}
			h := hx[:ne]
			for gi := range p.groups {
				g := &p.groups[gi]
				p.merge(h, gi, g.maxT, rw)
				extendNodes(h, g.maxT, hx[ne:])
				if g.point == nil {
					for t := range evals {
						evals[t].Add(&evals[t], &h[t])
					}
					continue
				}
				// g_e(t) = P·L(t)·h(t), L stepping by dL from L(0).
				var pl, pdL, v ff.Fr
				eqLine(&g.point[round], &l0, &dL)
				pl.Mul(&g.prefix, &l0)
				pdL.Mul(&g.prefix, &dL)
				for t := range evals {
					v.Mul(&pl, &h[t])
					evals[t].Add(&evals[t], &v)
					pl.Add(&pl, &pdL)
				}
			}
		}

		tr.AppendFrs("sumcheck.round", evals)
		r := tr.ChallengeFr("sumcheck.r")
		res.Proof.Rounds = append(res.Proof.Rounds, RoundPoly{Evals: evals})
		res.Challenges = append(res.Challenges, r)
		claim = interp.at(evals, &r)
		p.r = r
		for gi := range p.groups {
			if g := &p.groups[gi]; g.point != nil {
				// P ← P·eq1(t_round, r).
				e := eq1(&g.point[round], &r)
				g.prefix.Mul(&g.prefix, &e)
			}
		}
		// Next round's suffix weights: S_{j+1}[y] = S_j[2y] + S_j[2y+1],
		// folded in place (entry y only reads entries ≥ y).
		for _, w := range weights {
			for y := 0; y < half/2; y++ {
				w[y].Add(&w[2*y], &w[2*y+1])
			}
		}

		// The table the NEXT round folds is the one this round's sweep
		// materialized (or, after round 0, still the originals).
		if round > 0 {
			cur = p.dst
		}
	}

	// The final fold (challenge r_{mu-1} over the two-entry tables)
	// yields each MLE's evaluation at the full sumcheck point; an eq
	// factor's evaluation is eq(point, r), its fully bound prefix.
	var d ff.Fr
	var pair [2]ff.Fr
	for k := 0; k < nMLE; k++ {
		if isEq(k) {
			res.FinalEvals[k] = poly.EvalEq(vp.lazy[k].point, res.Challenges)
			continue
		}
		t := cur[k]
		if t == nil { // μ = 1: an affine factor's originals
			vp.lazy[k].affine.At(0, &pair[0])
			vp.lazy[k].affine.At(1, &pair[1])
			t = pair[:]
		}
		d.Sub(&t[1], &t[0])
		d.Mul(&d, &p.r)
		res.FinalEvals[k].Add(&t[0], &d)
	}

	arena.Put(p.acc)
	arena.Put(p.lad)
	for _, buf := range tables[nMLE:] {
		arena.Put(buf)
	}
	for _, w := range weights {
		arena.Put(w)
	}
	return res
}

// merge sums the workers' accumulators of group gi at nodes 0..maxT into
// out.
func (p *fusedProver) merge(out []ff.Fr, gi, maxT, rw int) {
	stride := len(p.groups) * p.ne
	base := gi * p.ne
	copy(out[:maxT+1], p.acc[base:base+maxT+1])
	for w := 1; w < rw; w++ {
		a := p.acc[w*stride+base:]
		for t := 0; t <= maxT; t++ {
			out[t].Add(&out[t], &a[t])
		}
	}
}

// termEqs sets eqOf[ti] to the index of term ti's eq factor (-1 for
// none) and reports true, or reports false — every entry -1 — when some
// term carries more than one eq factor, a shape ProveWith materializes.
func termEqs(vp *VirtualPoly, eqOf []int) ([]int, bool) {
	for ti, t := range vp.Terms {
		eqOf[ti] = -1
		for _, k := range t.Indices {
			if !vp.lazy[k].eq {
				continue
			}
			if eqOf[ti] >= 0 {
				for i := range eqOf {
					eqOf[i] = -1
				}
				return eqOf, false
			}
			eqOf[ti] = k
		}
	}
	return eqOf, true
}

// groupTerms orders the terms by eq factor (eqOf[ti], -1 for none) in
// order of first appearance, factors the shared indices out and sets up
// one group per factor.
func (p *fusedProver) groupTerms(eqOf []int, sc *intScratch) {
	terms := p.vp.Terms
	// slot[k+1] is the group of eq factor k (slot[0]: no eq factor).
	slot := sc.take(p.nMLE + 1)
	for i := range slot {
		slot[i] = -1
	}
	keys := sc.take(p.nMLE + 1)[:0]
	for _, e := range eqOf {
		if slot[e+1] < 0 {
			slot[e+1] = len(keys)
			keys = append(keys, e)
		}
	}
	order := sc.take(len(terms))[:0]
	bounds := sc.take(len(keys) + 1)
	for gi, e := range keys {
		for ti := range terms {
			if eqOf[ti] == e {
				order = append(order, ti)
			}
		}
		bounds[gi+1] = len(order)
	}
	var red []redTerm
	p.shared, red = factorShared(terms, order, eqOf, p.nMLE, sc)
	p.groups = make([]eqGroup, len(keys))
	for gi, e := range keys {
		g := &p.groups[gi]
		g.terms = red[bounds[gi]:bounds[gi+1]]
		g.tab = -1
		if e >= 0 {
			g.point = p.vp.lazy[e].point
		}
		for _, ti := range order[bounds[gi]:bounds[gi+1]] {
			d := len(terms[ti].Indices)
			if e >= 0 {
				d-- // the eq factor is L(X), outside h
			}
			g.deg = max(g.deg, d)
		}
	}
}

// booleanIndex reports whether every coordinate of pt is 0 or 1 and, if
// so, the hypercube index it names (coordinate j in bit j).
func booleanIndex(pt []ff.Fr) (int, bool) {
	idx := 0
	for j := range pt {
		switch {
		case pt[j].IsZero():
		case pt[j].IsOne():
			idx |= 1 << j
		default:
			return 0, false
		}
	}
	return idx, true
}

func equalFrs(a, b []ff.Fr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

// eqLine sets L(0) = 1−t and the step L(X+1)−L(X) = 2t−1 of the linear
// factor L(X) = eq1(t, X).
func eqLine(t, l0, dL *ff.Fr) {
	l0.SetOne()
	l0.Sub(l0, t)
	dL.Sub(t, l0)
}

// eq1 returns eq1(t, r) = 2tr − t − r + 1.
func eq1(t, r *ff.Fr) ff.Fr {
	var e, u, one ff.Fr
	e.Mul(t, r)
	e.Double(&e)
	u.Add(t, r)
	e.Sub(&e, &u)
	one.SetOne()
	e.Add(&e, &one)
	return e
}

// extendNodes fills v[d+1:] from v[0..d], the values of a polynomial of
// degree ≤ d at X = 0..d, by stepping its forward-difference table (a is
// scratch of at least d+1 entries). Exact arithmetic, so each column
// equals a direct evaluation.
func extendNodes(v []ff.Fr, d int, a []ff.Fr) {
	a = a[:d+1]
	copy(a, v[:d+1])
	for j := 1; j <= d; j++ {
		for i := d; i >= j; i-- {
			a[i].Sub(&a[i], &a[i-1])
		}
	}
	// a[j] = Δ^j v(0); each step moves the diagonal one node right.
	for x := 1; x < len(v); x++ {
		for j := 0; j < d; j++ {
			a[j].Add(&a[j], &a[j+1])
		}
		if x > d {
			v[x] = a[0]
		}
	}
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

// factorShared splits terms (taken in order, eqOf[ti] being term ti's
// analytically handled eq factor or -1) into the factors every term
// shares (with multiplicity, never an eq factor) and the per-term
// remainders, red[x] belonging to terms[order[x]].
func factorShared(terms []Term, order, eqOf []int, nMLE int, sc *intScratch) (shared []int, red []redTerm) {
	if len(order) == 0 {
		return nil, nil
	}
	minCnt, cnt, remaining := sc.take(nMLE), sc.take(nMLE), sc.take(nMLE)
	total := 0
	for x, ti := range order {
		t := terms[ti]
		total += len(t.Indices)
		for i := range cnt {
			cnt[i] = 0
		}
		for _, k := range t.Indices {
			cnt[k]++
		}
		if e := eqOf[ti]; e >= 0 {
			cnt[e]-- // the eq factor is handled analytically
			total--
		}
		if x == 0 {
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
	flat := sc.take(nShared + total - nShared*len(order))
	shared = flat[:0:nShared]
	for i, c := range minCnt {
		for j := 0; j < c; j++ {
			shared = append(shared, i)
		}
	}
	one := ff.FrOne()
	red = make([]redTerm, len(order))
	rest := flat[nShared:]
	for x, ti := range order {
		t := terms[ti]
		copy(remaining, minCnt)
		if e := eqOf[ti]; e >= 0 {
			remaining[e]++ // strip the eq occurrence too
		}
		rt := &red[x]
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
	return shared, red
}

// sweep processes hypercube instances [lo, hi) for the current round on
// worker w: folds the pending challenge into this round's tables (when
// one is pending), fills the per-MLE evaluation ladders up to maxT, and
// accumulates every group's term products — weighted by its eq suffix —
// into the worker's accumulator.
func (p *fusedProver) sweep(w, lo, hi int) {
	ne := p.ne
	nG := len(p.groups)
	acc := p.acc[w*nG*ne : (w+1)*nG*ne]
	for t := range acc {
		acc[t].SetZero()
	}
	lad := p.lad[w*p.nMLE*ne : (w+1)*p.nMLE*ne]
	var d, e0, e1, inner, prod ff.Fr
	var q [4]ff.Fr // an affine factor's original entries
	for i := lo; i < hi; i++ {
		// Per-MLE evaluation ladders (Fig. 4 "Per-MLE Evaluations"),
		// fused with the pending MLE Update (Eq. 2).
		for _, k := range p.live {
			s, o, m := p.src[k], 2*i, 2
			if p.fold {
				o, m = 4*i, 4
			}
			if s == nil {
				for j := 0; j < m; j++ {
					p.vp.lazy[k].affine.At(o+j, &q[j])
				}
				s, o = q[:], 0
			}
			if p.fold {
				d.Sub(&s[o+1], &s[o])
				d.Mul(&d, &p.r)
				e0.Add(&s[o], &d)
				d.Sub(&s[o+3], &s[o+2])
				d.Mul(&d, &p.r)
				e1.Add(&s[o+2], &d)
				dst := p.dst[k]
				dst[2*i] = e0
				dst[2*i+1] = e1
			} else {
				e0 = s[o]
				e1 = s[o+1]
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
		// Per-group, per-point products: reduced terms summed, then the
		// shared factors applied once (distributivity is exact in F_r,
		// so this equals the reference's per-term products bit for bit)
		// and the eq suffix weight last.
		for gi := range p.groups {
			g := &p.groups[gi]
			var wt *ff.Fr
			if g.w != nil {
				wt = &g.w[i]
			} else if g.boolean && i != g.hot {
				continue // weight 0
			}
			a := acc[gi*ne : (gi+1)*ne]
			for t := 0; t <= g.maxT; t++ {
				if t == 1 && p.skipOne {
					continue
				}
				inner.SetZero()
				for ti := range g.terms {
					rt := &g.terms[ti]
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
				if wt != nil {
					inner.Mul(&inner, wt)
				}
				a[t].Add(&a[t], &inner)
			}
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
