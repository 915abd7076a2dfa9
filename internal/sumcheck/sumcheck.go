// Package sumcheck implements the multi-round SumCheck protocol (§2.2) for
// virtual polynomials that are sums of products of multilinear polynomials —
// the exact shape of HyperPlonk's ZeroCheck, PermCheck and OpenCheck
// instances (Eqs. 3-5 of the paper). The prover mirrors the zkSpeed
// SumCheck PE dataflow (Fig. 4): per hypercube instance, every unique MLE
// is extended once to all needed evaluation points, per-term products are
// formed, and results accumulate per evaluation point, with the MLE Update
// kernel (Eq. 2) that folds the verifier challenge into every table fused
// into the next round's sweep (Prove/ProveWith, fused.go). ProveReference
// is the round-by-round prover with a separate update pass, kept as the
// reference the fused dataflow is measured and tested against.
package sumcheck

import (
	"fmt"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// Term is one product term: Coeff · Π_k MLEs[Indices[k]].
type Term struct {
	Coeff   ff.Fr
	Indices []int
}

// VirtualPoly is a sum of products of shared multilinear polynomials.
type VirtualPoly struct {
	NumVars int
	MLEs    []*poly.MLE
	Terms   []Term
	// lazy describes, index for index with MLEs, the MLEs registered
	// without a table (their MLEs entry is nil until materialized):
	// eq(X, point) factors and affine wire factors. ProveWith forms them
	// on the fly; every other consumer sees an ordinary MLE, materialized
	// on first touch by mle().
	lazy []lazyMLE
}

// lazyMLE describes a table-less MLE; the zero value is an ordinary table.
type lazyMLE struct {
	eq     bool
	point  []ff.Fr // eq(X, point) when eq
	affine *poly.Affine
}

// NewVirtualPoly creates an empty virtual polynomial over numVars variables.
func NewVirtualPoly(numVars int) *VirtualPoly {
	return &VirtualPoly{NumVars: numVars}
}

// AddMLE registers an MLE and returns its index.
func (vp *VirtualPoly) AddMLE(m *poly.MLE) int {
	if m.NumVars != vp.NumVars {
		panic(fmt.Sprintf("sumcheck: MLE has %d vars, virtual poly has %d", m.NumVars, vp.NumVars))
	}
	return vp.add(m, lazyMLE{})
}

func (vp *VirtualPoly) add(m *poly.MLE, l lazyMLE) int {
	vp.MLEs = append(vp.MLEs, m)
	vp.lazy = append(vp.lazy, l)
	return len(vp.MLEs) - 1
}

// AddEqMLE registers eq(X, point) — the Build MLE output a ZeroCheck or
// PermCheck multiplies every term by, and an OpenCheck term by its own
// opening point — without materializing its 2^μ table. It may be called
// once per term, each call registering a new factor. ProveWith evaluates
// the eq factors analytically (each one's bound prefix is a running
// scalar, its suffix a weight table shared by every factor with the same
// point[1:], and its round variable a linear factor of its terms' round
// polynomial); ProveReference and the oracle helpers materialize the
// table on first touch, so proofs are identical either way.
func (vp *VirtualPoly) AddEqMLE(point []ff.Fr) int {
	if len(point) != vp.NumVars {
		panic(fmt.Sprintf("sumcheck: eq point has %d coords, virtual poly has %d vars", len(point), vp.NumVars))
	}
	return vp.add(nil, lazyMLE{eq: true, point: point})
}

// AddAffineMLE registers the affine MLE a (W + Scale·S + Shift, the
// PermCheck's N_j and D_j) without materializing its table: ProveWith
// forms its entries in the two rounds that read original tables, and
// only its fold buffers are ever stored. Other consumers materialize it.
func (vp *VirtualPoly) AddAffineMLE(a poly.Affine) int {
	if a.W.NumVars != vp.NumVars || (a.S != nil && a.S.NumVars != vp.NumVars) {
		panic(fmt.Sprintf("sumcheck: affine MLE has %d vars, virtual poly has %d", a.W.NumVars, vp.NumVars))
	}
	return vp.add(nil, lazyMLE{affine: &a})
}

// mle returns the k-th MLE, materializing a lazily registered table.
func (vp *VirtualPoly) mle(k int) *poly.MLE {
	if vp.MLEs[k] == nil {
		if l := vp.lazy[k]; l.eq {
			vp.MLEs[k] = poly.EqTable(l.point)
		} else {
			vp.MLEs[k] = l.affine.MLE()
		}
	}
	return vp.MLEs[k]
}

// AddTerm appends coeff·Π MLEs[idx] to the polynomial.
func (vp *VirtualPoly) AddTerm(coeff ff.Fr, idx ...int) {
	for _, i := range idx {
		if i < 0 || i >= len(vp.MLEs) {
			panic("sumcheck: term references unknown MLE")
		}
	}
	vp.Terms = append(vp.Terms, Term{Coeff: coeff, Indices: idx})
}

// Degree returns the maximum per-variable degree (the longest product).
func (vp *VirtualPoly) Degree() int {
	d := 0
	for _, t := range vp.Terms {
		if len(t.Indices) > d {
			d = len(t.Indices)
		}
	}
	return d
}

// SumOverHypercube computes Σ_{x∈{0,1}^μ} vp(x), the prover's claim.
func (vp *VirtualPoly) SumOverHypercube() ff.Fr {
	var sum ff.Fr
	n := 1 << vp.NumVars
	var prod, t ff.Fr
	for k := range vp.MLEs {
		vp.mle(k)
	}
	for i := 0; i < n; i++ {
		for _, term := range vp.Terms {
			prod = term.Coeff
			for _, k := range term.Indices {
				prod.Mul(&prod, &vp.MLEs[k].Evals[i])
			}
			t = prod
			sum.Add(&sum, &t)
		}
	}
	return sum
}

// EvaluateAt evaluates the virtual polynomial at an arbitrary point via its
// constituent MLEs.
func (vp *VirtualPoly) EvaluateAt(point []ff.Fr) ff.Fr {
	evals := make([]ff.Fr, len(vp.MLEs))
	for k := range vp.MLEs {
		evals[k] = vp.mle(k).Evaluate(point)
	}
	return CombineTermEvals(vp.Terms, evals)
}

// CombineTermEvals computes Σ_terms coeff·Π evals[idx] given per-MLE
// evaluations at a common point.
func CombineTermEvals(terms []Term, evals []ff.Fr) ff.Fr {
	var out, prod ff.Fr
	for _, term := range terms {
		prod = term.Coeff
		for _, k := range term.Indices {
			prod.Mul(&prod, &evals[k])
		}
		out.Add(&out, &prod)
	}
	return out
}

// RoundPoly is the univariate round polynomial p, sent as its values at
// X = 0, 2, 3, …, d. d+1 values characterize a degree-d polynomial
// (§2.3); the one left out, p(1), is claim − p(0), where claim is the
// previous round's polynomial at its challenge (the sum being proved in
// round 0), so the verifier derives it.
type RoundPoly struct {
	Evals []ff.Fr
}

// roundDegree is the degree bound vp's round polynomials are sent at:
// its degree, but at least 1, so that p(0) and the derived p(1) always
// determine a constant round.
func roundDegree(vp *VirtualPoly) int { return max(vp.Degree(), 1) }

// sendRound writes the values sent of the round polynomial given by its
// values full at X = 0..d into sent (d entries: all but p(1)), appends
// them to the transcript and draws the round's challenge.
func sendRound(tr *transcript.Transcript, full, sent []ff.Fr) ff.Fr {
	sent[0] = full[0]
	copy(sent[1:], full[2:])
	tr.AppendFrs("sumcheck.round", sent)
	return tr.ChallengeFr("sumcheck.r")
}

// Proof is a complete sumcheck transcript: one round polynomial per
// variable.
type Proof struct {
	Rounds []RoundPoly
}

// ProverResult bundles the proof with the artifacts the caller needs to
// finish the outer protocol.
type ProverResult struct {
	Proof      Proof
	Challenges []ff.Fr // the sumcheck point r
	FinalEvals []ff.Fr // each MLE evaluated at r, in registration order
}

// clampWorkers bounds a worker count by the number of hypercube
// instances: more workers than instances would leave the extras idle,
// and small rounds still deserve every instance they have (nw = half,
// not 1 — collapsing to a single worker serialized every small-μ round).
func clampWorkers(procs, half int) int {
	nw := procs
	if nw > half {
		nw = half
	}
	if nw < 1 {
		nw = 1
	}
	return nw
}

// Prove runs the sumcheck prover with default options (one worker per
// CPU, shared arena). It leaves the MLE tables inside vp intact.
// Challenges are drawn from tr, which the verifier replays.
func Prove(vp *VirtualPoly, tr *transcript.Transcript) ProverResult {
	return ProveWith(vp, tr, poly.Options{})
}

// ProveReference is the round-by-round prover the MTU dataflow of
// ProveWith is measured against: every round evaluates all deg+1 columns
// of the round polynomial over materialized tables (the eq table
// included), then a separate MLE Update pass folds the challenge into
// each table, on one goroutine with fresh scratch per round. It consumes
// vp's tables (folded in place), so callers pass clones of anything they
// keep. Nothing in the prover calls it: the bench suite and its CI gates
// time it beside ProveWith, and tests use it as the oracle — proofs are
// byte-identical, field arithmetic being exact.
func ProveReference(vp *VirtualPoly, tr *transcript.Transcript) ProverResult {
	if len(vp.MLEs) == 0 {
		panic("sumcheck: virtual polynomial has no MLEs")
	}
	for k := range vp.MLEs {
		vp.mle(k) // materialize lazily registered tables
	}
	mu := vp.NumVars
	deg := roundDegree(vp)
	res := ProverResult{
		Challenges: make([]ff.Fr, 0, mu),
	}
	res.Proof.Rounds = make([]RoundPoly, 0, mu)
	for round := 0; round < mu; round++ {
		sent := make([]ff.Fr, deg)
		r := sendRound(tr, referenceRound(vp, deg), sent)
		res.Proof.Rounds = append(res.Proof.Rounds, RoundPoly{Evals: sent})
		res.Challenges = append(res.Challenges, r)
		for _, m := range vp.MLEs {
			m.FixVariable(&r)
		}
	}
	res.FinalEvals = make([]ff.Fr, len(vp.MLEs))
	for k, m := range vp.MLEs {
		res.FinalEvals[k] = m.Evals[0]
	}
	return res
}

// referenceRound computes the round polynomial evaluations at X = 0..deg
// by the textbook sweep: per hypercube instance, every MLE is extended to
// all evaluation points and every term product accumulated per point.
func referenceRound(vp *VirtualPoly, deg int) []ff.Fr {
	half := vp.MLEs[0].Len() / 2
	nEvals := deg + 1
	acc := make([]ff.Fr, nEvals)
	// per-MLE evaluation ladders (Fig. 4 "Per-MLE Evaluations")
	evals := make([][]ff.Fr, len(vp.MLEs))
	for k := range evals {
		evals[k] = make([]ff.Fr, nEvals)
	}
	var delta, prod ff.Fr
	for i := 0; i < half; i++ {
		for k, m := range vp.MLEs {
			e0 := &m.Evals[2*i]
			e1 := &m.Evals[2*i+1]
			ev := evals[k]
			ev[0] = *e0
			if nEvals > 1 {
				ev[1] = *e1
				delta.Sub(e1, e0)
				for t := 2; t < nEvals; t++ {
					ev[t].Add(&ev[t-1], &delta)
				}
			}
		}
		for _, term := range vp.Terms {
			for t := 0; t < nEvals; t++ {
				prod = term.Coeff
				for _, k := range term.Indices {
					prod.Mul(&prod, &evals[k][t])
				}
				acc[t].Add(&acc[t], &prod)
			}
		}
	}
	return acc
}

// InterpolateAt evaluates the degree-(len(evals)-1) polynomial defined by
// its values at X = 0,1,…,d at an arbitrary point r.
func InterpolateAt(evals []ff.Fr, r *ff.Fr) ff.Fr {
	d := len(evals) - 1
	ci := newClaimInterpolator(d, make([]ff.Fr, interpolatorLen(d)))
	return ci.at(evals, r)
}

// claimInterpolator evaluates a round polynomial (given by its values at
// X = 0..d) at the drawn challenge — the running claim the next round
// checks (the verifier) or derives g(1) from (the prover). It is the
// fixed-cost Barycentric step of §4.1.1: the weights are computed once,
// the d+1 denominators share one Montgomery-batched inversion and all
// scratch is preallocated, so the per-round cost is one field inversion
// plus O(d) multiplications.
type claimInterpolator struct {
	w     []ff.Fr // barycentric weights w_j = Π_{k≠j}(j-k), precomputed
	diffs []ff.Fr
	den   []ff.Fr
	part  []ff.Fr
}

// interpolatorLen is the backing newClaimInterpolator needs for degree d.
func interpolatorLen(d int) int { return 4*(d+1) + 1 }

// newClaimInterpolator lays the interpolator for degree d out in backing
// (interpolatorLen(d) entries).
func newClaimInterpolator(d int, backing []ff.Fr) claimInterpolator {
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

// VerifyResult is the outcome of verifying a sumcheck proof.
type VerifyResult struct {
	Challenges []ff.Fr // the sumcheck point r
	FinalClaim ff.Fr   // claimed value of the virtual polynomial at r
}

// Verify replays the sumcheck rounds against the transcript. Each round
// sends p(0), p(2), …, p(degree); the verifier sets p(1) = claim − p(0),
// which is the round consistency check p(0) + p(1) = claim built into
// the polynomial it interpolates at the challenge. A wrong claim or a
// tampered round therefore surfaces in FinalClaim, which the caller must
// check against oracle evaluations of the underlying MLEs at r.
func Verify(claim ff.Fr, proof Proof, numVars, degree int, tr *transcript.Transcript) (VerifyResult, error) {
	var res VerifyResult
	if degree < 1 {
		return res, fmt.Errorf("sumcheck: degree %d, want at least 1", degree)
	}
	if len(proof.Rounds) != numVars {
		return res, fmt.Errorf("sumcheck: expected %d rounds, got %d", numVars, len(proof.Rounds))
	}
	cur := claim
	res.Challenges = make([]ff.Fr, 0, numVars)
	buf := make([]ff.Fr, degree+1+interpolatorLen(degree))
	full, interp := buf[:degree+1], newClaimInterpolator(degree, buf[degree+1:])
	for round, rp := range proof.Rounds {
		if len(rp.Evals) != degree {
			return res, fmt.Errorf("sumcheck: round %d has %d evals, want %d", round, len(rp.Evals), degree)
		}
		full[0] = rp.Evals[0]
		full[1].Sub(&cur, &rp.Evals[0])
		copy(full[2:], rp.Evals[1:])
		tr.AppendFrs("sumcheck.round", rp.Evals)
		r := tr.ChallengeFr("sumcheck.r")
		res.Challenges = append(res.Challenges, r)
		cur = interp.at(full, &r)
	}
	res.FinalClaim = cur
	return res, nil
}
