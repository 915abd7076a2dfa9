package hyperplonk

import (
	"context"
	"errors"
	"fmt"
	"time"

	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/sumcheck"
	"zkspeed/internal/transcript"
)

// StepTimings records wall-clock time per protocol step (the software
// analogue of Fig. 12's breakdown).
type StepTimings struct {
	WitnessCommit time.Duration
	// WireIdentity builds the wiring identity's fraction and product
	// MLEs φ and π and commits to them.
	WireIdentity time.Duration
	// ZeroCheck is the one sumcheck that proves the gate and the wiring
	// identities together (buildIdentityPoly).
	ZeroCheck  time.Duration
	BatchEvals time.Duration
	PolyOpen   time.Duration
	Total      time.Duration
}

// Map returns the per-step breakdown keyed by stable step names — the
// form benchmark records store (steps_ns) so a measured proof decomposes
// into kernel shares like the paper's Table 1 profile. The zero-check
// keeps the key of the step that ran the gate identity's own ZeroCheck,
// gate_identity, which the repository benchmark's per-layer metric
// reads. Total is not a step and is omitted; a nil receiver yields nil.
func (t *StepTimings) Map() map[string]time.Duration {
	if t == nil {
		return nil
	}
	return map[string]time.Duration{
		"witness_commit": t.WitnessCommit,
		"wire_identity":  t.WireIdentity,
		"gate_identity":  t.ZeroCheck,
		"batch_evals":    t.BatchEvals,
		"poly_open":      t.PolyOpen,
	}
}

// ProveOptions tunes a single proof generation.
type ProveOptions struct {
	// CollectTimings enables the per-step wall-clock breakdown; when
	// false, ProveWithContext returns nil timings.
	CollectTimings bool
	// Exec is the execution context every kernel of the proof runs under
	// — the MSMs of the commitments and the opening chain, the two
	// sumchecks and the MLE kernels: its Procs bounds their goroutines
	// and its Scratch is the arena they draw per-proof buffers from. The
	// engine fills in WithParallelism and its own arena.
	Exec poly.Options
	// Scheme, when non-empty, pins the commitment scheme this proof must
	// be produced under ("pst", "zeromorph"); proving fails rather than
	// silently using a key preprocessed under a different backend. Empty
	// accepts whatever scheme the proving key carries.
	Scheme string
}

// Prove generates a HyperPlonk proof for the assignment under pk with
// default options and no cancellation.
func Prove(pk *ProvingKey, a *Assignment) (*Proof, *StepTimings, error) {
	return ProveWithContext(context.Background(), pk, a, &ProveOptions{CollectTimings: true})
}

// ProveWithContext generates a HyperPlonk proof for the assignment under
// pk. The protocol steps run strictly in sequence, interleaved with SHA3
// transcript updates, in the order of Fig. 2 of the paper, except that
// the gate identity is batched into the wiring identity's zero-check
// (buildIdentityPoly). The
// context is checked at every protocol-step boundary, so cancellation
// aborts the proof within one step and returns ctx.Err().
func ProveWithContext(ctx context.Context, pk *ProvingKey, a *Assignment, opts *ProveOptions) (*Proof, *StepTimings, error) {
	if opts == nil {
		opts = &ProveOptions{CollectTimings: true}
	}
	c := pk.Circuit
	mu := c.Mu
	n := c.NumGates()
	if a.W1.Len() != n || a.W2.Len() != n || a.W3.Len() != n {
		return nil, nil, errors.New("hyperplonk: assignment size mismatch")
	}
	if opts.Scheme != "" {
		want, err := pcs.ParseScheme(opts.Scheme)
		if err != nil {
			return nil, nil, err
		}
		if got := pk.PCS.Scheme(); got != want {
			return nil, nil, fmt.Errorf("hyperplonk: options pin scheme %v but key was preprocessed under %v", want, got)
		}
	}
	proof := &Proof{Scheme: pk.PCS.Scheme()}
	tm := &StepTimings{}
	popt := opts.Exec
	start := time.Now()

	tr := transcript.New(transcriptDomain)
	tr.AppendBytes("vk", pk.VK.Digest())
	pub := c.PublicInputs(a)
	tr.AppendFrs("public", pub)

	// ---- Step 1: Witness Commits (Sparse MSMs, §3.3.1) ----
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	var err error
	for j, w := range []*poly.MLE{a.W1, a.W2, a.W3} {
		if proof.WitnessComms[j], err = pk.PCS.CommitWith(w, popt); err != nil {
			return nil, nil, err
		}
		tr.AppendG1("witness", &proof.WitnessComms[j].P)
	}
	tm.WitnessCommit = time.Since(t0)

	// ---- Step 2: Wiring Commits (FracMLE and product tree, §3.3.3) ----
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	beta := tr.ChallengeFr("permcheck.beta")
	gamma := tr.ChallengeFr("permcheck.gamma")
	nd := wireFactors(c, a, &beta, &gamma)
	phi := poly.FractionOfProductsWith(nd.N[:], nd.D[:], popt) // Construct N&D into the FracMLE unit
	pi := poly.ProductMLEWith(phi, popt)                       // Multifunction Tree Unit
	if proof.PhiComm, err = pk.PCS.CommitWith(phi, popt); err != nil {
		return nil, nil, err
	}
	if proof.PiComm, err = pk.PCS.CommitWith(pi, popt); err != nil {
		return nil, nil, err
	}
	tr.AppendG1("phi", &proof.PhiComm.P)
	tr.AppendG1("pi", &proof.PiComm.P)
	tm.WireIdentity = time.Since(t0)

	// ---- Step 3: Gate and Wiring Identities (one ZeroCheck, §3.3.2-3) ----
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	alpha := tr.ChallengeFr("zerocheck.alpha")
	zcPoint := tr.ChallengeFrs("zerocheck.t", mu)
	// The eq factor (Build MLE on the Multifunction Tree Unit) rides
	// along as an annotation: the sumcheck prover never builds the
	// table, tracking the r(X) polynomial analytically instead.
	p1, p2 := poly.ProductSides(phi, pi)
	vpZero := buildIdentityPoly(c, a, phi, pi, p1, p2, nd, zcPoint, &alpha)
	zcRes := sumcheck.ProveWith(vpZero, tr, popt)
	proof.IdentityCheck = zcRes.Proof
	tm.ZeroCheck = time.Since(t0)

	// ---- Step 4: Batch Evaluations (§3.3.4) ----
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	rPI := tr.ChallengeFrs("pi.r", c.PublicVars())
	cl, _ := buildClaims(mu, zcRes.Challenges, rPI)
	polys := gatherPolys(c, a, phi, pi)
	for k, cm := range cl.claims {
		proof.Evals[k] = polys[cm.poly].EvaluateWith(cl.points[cm.point], popt) // MLE Evaluate (MTU)
	}
	tr.AppendFrs("batch.evals", proof.Evals[:])
	tm.BatchEvals = time.Since(t0)

	// ---- Step 5: Polynomial Opening (OpenCheck + PST opening, §3.3.5) ----
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	eta := tr.ChallengeFr("open.eta")
	weights := etaWeights(&eta)
	// Per-point combined MLEs y_j (MLE Combine unit): the claims grouped
	// by point, each weighted by its η power.
	numPoints := len(cl.points)
	ys := make([]*poly.MLE, numPoints)
	for j := range ys {
		var members []*poly.MLE
		var coeffs []ff.Fr
		for k, cm := range cl.claims {
			if cm.point == j {
				members = append(members, polys[cm.poly])
				coeffs = append(coeffs, weights[k])
			}
		}
		ys[j] = poly.LinearCombineWith(members, coeffs, popt)
	}
	// OpenCheck: sumcheck over f_open = Σ_j y_j·k_j (Eq. 5). Each k_j is
	// its own eq factor, registered without a table (the sumcheck prover
	// folds only the y_j); the y_j combined MLEs are reused for g' below,
	// which the sumcheck prover permits without cloning.
	vpOpen := sumcheck.NewVirtualPoly(mu)
	one := ff.NewFr(1)
	for j := 0; j < numPoints; j++ {
		iy := vpOpen.AddMLE(ys[j])
		ik := vpOpen.AddEqMLE(cl.points[j])
		vpOpen.AddTerm(one, iy, ik)
	}
	ocRes := sumcheck.ProveWith(vpOpen, tr, popt)
	proof.OpenCheck = ocRes.Proof
	rOpen := ocRes.Challenges

	// g' = Σ_j k_j(r_open)·y_j, opened at r_open with the halving MSM
	// chain (2^{μ-1}-, 2^{μ-2}-, …, 1-point MSMs).
	kAtR := make([]ff.Fr, numPoints)
	for j := 0; j < numPoints; j++ {
		kAtR[j] = ocRes.FinalEvals[2*j+1] // eq(point_j, r_open)
	}
	gPrime := poly.LinearCombineWith(ys, kAtR, popt)
	opening, gVal, err := pk.PCS.OpenWith(gPrime, rOpen, popt)
	if err != nil {
		return nil, nil, err
	}
	// Internal consistency: the opened value must equal the OpenCheck's
	// final claim (both are f_open(r_open)).
	var check ff.Fr
	for j := 0; j < numPoints; j++ {
		e := ocRes.FinalEvals[2*j] // y_j eval
		e.Mul(&e, &ocRes.FinalEvals[2*j+1])
		check.Add(&check, &e)
	}
	if !check.Equal(&gVal) {
		return nil, nil, errors.New("hyperplonk: internal opening inconsistency")
	}
	proof.Opening = opening
	tm.PolyOpen = time.Since(t0)
	tm.Total = time.Since(start)
	if !opts.CollectTimings {
		return proof, nil, nil
	}
	return proof, tm, nil
}

// nAndD carries the Construct N&D unit's factors (§4.4.1):
// N_j = w_j + β·id_j + γ and D_j = w_j + β·σ_j + γ, as affine MLEs whose
// entries are formed where they are read — the FracMLE batches and the
// zero-check's first two rounds — so no table of them is ever stored.
type nAndD struct {
	N, D [3]poly.Affine
}

// wireFactors describes N_j and D_j for the wiring identity; id_j is the
// identity MLE offset by j·n.
func wireFactors(c *Circuit, a *Assignment, beta, gamma *ff.Fr) *nAndD {
	n := c.NumGates()
	out := &nAndD{}
	for j, w := range []*poly.MLE{a.W1, a.W2, a.W3} {
		out.N[j] = poly.Affine{W: w, Scale: *beta, Offset: uint64(j * n), Shift: *gamma}
		out.D[j] = poly.Affine{W: w, Scale: *beta, S: c.Sigma[j], Shift: *gamma}
	}
	return out
}

// buildIdentityPoly assembles the one zero-check of both identities:
//
//	f = (f_gate + α·f_prod + α²·f_frac)·eq
//	f_gate = qL w1 + qR w2 + qM w1 w2 − qO w3 + qC   (Eq. 3)
//	f_prod = π − p1·p2                                (Eq. 4)
//	f_frac = φ·D1·D2·D3 − N1·N2·N3                    (Eq. 4)
//
// Each of the three vanishes on the hypercube exactly when its identity
// holds, so one random α batches them: HyperPlonk reduces both identities
// to zero-checks over the same cube (Chen, Bünz, Boneh and Zhang,
// EUROCRYPT 2023). The degree is f_frac's, 5 with eq. The eq factor is an
// annotation the sumcheck prover tracks analytically; the circuit and
// witness tables are registered as they are, since the prover leaves them
// intact.
func buildIdentityPoly(c *Circuit, a *Assignment, phi, pi, p1, p2 *poly.MLE, nd *nAndD, zcPoint []ff.Fr, alpha *ff.Fr) *sumcheck.VirtualPoly {
	vp := sumcheck.NewVirtualPoly(c.Mu)
	iQL := vp.AddMLE(c.QL)
	iQR := vp.AddMLE(c.QR)
	iQM := vp.AddMLE(c.QM)
	iQO := vp.AddMLE(c.QO)
	iQC := vp.AddMLE(c.QC)
	iW1 := vp.AddMLE(a.W1)
	iW2 := vp.AddMLE(a.W2)
	iW3 := vp.AddMLE(a.W3)
	iPi := vp.AddMLE(pi)
	iP1 := vp.AddMLE(p1)
	iP2 := vp.AddMLE(p2)
	iPhi := vp.AddMLE(phi)
	iD1 := vp.AddAffineMLE(nd.D[0])
	iD2 := vp.AddAffineMLE(nd.D[1])
	iD3 := vp.AddAffineMLE(nd.D[2])
	iN1 := vp.AddAffineMLE(nd.N[0])
	iN2 := vp.AddAffineMLE(nd.N[1])
	iN3 := vp.AddAffineMLE(nd.N[2])
	iEq := vp.AddEqMLE(zcPoint)
	one := ff.NewFr(1)
	var negOne, alpha2, negAlpha, negAlpha2 ff.Fr
	negOne.Neg(&one)
	alpha2.Square(alpha)
	negAlpha.Neg(alpha)
	negAlpha2.Neg(&alpha2)
	vp.AddTerm(one, iQL, iW1, iEq)
	vp.AddTerm(one, iQR, iW2, iEq)
	vp.AddTerm(one, iQM, iW1, iW2, iEq)
	vp.AddTerm(negOne, iQO, iW3, iEq)
	vp.AddTerm(one, iQC, iEq)
	vp.AddTerm(*alpha, iPi, iEq)
	vp.AddTerm(negAlpha, iP1, iP2, iEq)
	vp.AddTerm(alpha2, iPhi, iD1, iD2, iD3, iEq)
	vp.AddTerm(negAlpha2, iN1, iN2, iN3, iEq)
	return vp
}

// gatherPolys collects the 13 polynomials by index.
func gatherPolys(c *Circuit, a *Assignment, phi, pi *poly.MLE) [numPolys]*poly.MLE {
	return [numPolys]*poly.MLE{
		polyQL:     c.QL,
		polyQR:     c.QR,
		polyQM:     c.QM,
		polyQO:     c.QO,
		polyQC:     c.QC,
		polySigma1: c.Sigma[0],
		polySigma2: c.Sigma[1],
		polySigma3: c.Sigma[2],
		polyW1:     a.W1,
		polyW2:     a.W2,
		polyW3:     a.W3,
		polyPhi:    phi,
		polyPi:     pi,
	}
}

// etaWeights returns η^k for the k-th claim.
func etaWeights(eta *ff.Fr) [NumEvaluations]ff.Fr {
	var out [NumEvaluations]ff.Fr
	out[0].SetOne()
	for k := 1; k < NumEvaluations; k++ {
		out[k].Mul(&out[k-1], eta)
	}
	return out
}
