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
	GateIdentity  time.Duration
	WireIdentity  time.Duration
	BatchEvals    time.Duration
	PolyOpen      time.Duration
	Total         time.Duration
}

// Map returns the per-step breakdown keyed by stable step names — the
// form benchmark records store (steps_ns) so a measured proof decomposes
// into kernel shares like the paper's Table 1 profile. Total is not a
// step and is omitted; a nil receiver yields nil.
func (t *StepTimings) Map() map[string]time.Duration {
	if t == nil {
		return nil
	}
	return map[string]time.Duration{
		"witness_commit": t.WitnessCommit,
		"gate_identity":  t.GateIdentity,
		"wire_identity":  t.WireIdentity,
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
	// — the MSMs of the commitments and the opening chain, the three
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
// transcript updates, exactly as Fig. 2 of the paper lays them out. The
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

	tr := transcript.New("zkspeed.hyperplonk.v1")
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

	// ---- Step 2: Gate Identity (ZeroCheck, §3.3.2) ----
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	zcPoint := tr.ChallengeFrs("zerocheck.t", mu)
	// The eq factor (Build MLE on the Multifunction Tree Unit) rides
	// along as an annotation: the sumcheck prover never builds the
	// table, tracking the r(X) polynomial analytically instead.
	vpZero := buildGatePoly(c, a, zcPoint)
	zcRes := sumcheck.ProveWith(vpZero, tr, popt)
	proof.ZeroCheck = zcRes.Proof
	rGate := zcRes.Challenges
	tm.GateIdentity = time.Since(t0)

	// ---- Step 3: Wiring Identity (PermCheck, §3.3.3) ----
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
	alpha := tr.ChallengeFr("permcheck.alpha")
	pcPoint := tr.ChallengeFrs("permcheck.t", mu)
	p1, p2 := poly.ProductSides(phi, pi)
	vpPerm := buildPermPoly(phi, pi, p1, p2, nd, pcPoint, &alpha)
	pcRes := sumcheck.ProveWith(vpPerm, tr, popt)
	proof.PermCheck = pcRes.Proof
	rPerm := pcRes.Challenges
	tm.WireIdentity = time.Since(t0)

	// ---- Step 4: Batch Evaluations (§3.3.4) ----
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	piVars := c.PublicVars()
	rPI := tr.ChallengeFrs("pi.r", piVars)
	points := openingPoints(mu, rGate, rPerm, rPI)
	polys := gatherPolys(c, a, phi, pi)
	for k, e := range evalSchedule {
		proof.Evals[k] = polys[e.poly].EvaluateWith(points[e.point], popt) // MLE Evaluate (MTU)
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
	// Per-point combined MLEs y_j (MLE Combine unit) and their claimed
	// combined evaluations v_j.
	ys := make([]*poly.MLE, numPoints)
	vs := make([]ff.Fr, numPoints)
	for j := 0; j < numPoints; j++ {
		var members []*poly.MLE
		var coeffs []ff.Fr
		for k, e := range evalSchedule {
			if e.point != j {
				continue
			}
			members = append(members, polys[e.poly])
			coeffs = append(coeffs, weights[k])
			var t ff.Fr
			t.Mul(&weights[k], &proof.Evals[k])
			vs[j].Add(&vs[j], &t)
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
		ik := vpOpen.AddEqMLE(points[j])
		vpOpen.AddTerm(one, iy, ik)
	}
	ocRes := sumcheck.ProveWith(vpOpen, tr, popt)
	proof.OpenCheck = ocRes.Proof
	rOpen := ocRes.Challenges

	// g' = Σ_j k_j(r_open)·y_j, opened at r_open with the halving MSM
	// chain (2^{μ-1}-, 2^{μ-2}-, …, 1-point MSMs).
	kAtR := make([]ff.Fr, numPoints)
	for j := 0; j < numPoints; j++ {
		kAtR[j] = ocRes.FinalEvals[2*j+1] // eq(points[j], r_open)
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

// buildGatePoly assembles f_zero = (qL w1 + qR w2 + qM w1 w2 - qO w3 + qC)·eq
// (Eq. 3). The eq factor is an annotation the sumcheck prover tracks
// analytically; the circuit and witness tables are registered as they are,
// since the prover leaves them intact.
func buildGatePoly(c *Circuit, a *Assignment, zcPoint []ff.Fr) *sumcheck.VirtualPoly {
	vp := sumcheck.NewVirtualPoly(c.Mu)
	iQL := vp.AddMLE(c.QL)
	iQR := vp.AddMLE(c.QR)
	iQM := vp.AddMLE(c.QM)
	iQO := vp.AddMLE(c.QO)
	iQC := vp.AddMLE(c.QC)
	iW1 := vp.AddMLE(a.W1)
	iW2 := vp.AddMLE(a.W2)
	iW3 := vp.AddMLE(a.W3)
	iEq := vp.AddEqMLE(zcPoint)
	one := ff.NewFr(1)
	var neg ff.Fr
	neg.Neg(&one)
	vp.AddTerm(one, iQL, iW1, iEq)
	vp.AddTerm(one, iQR, iW2, iEq)
	vp.AddTerm(one, iQM, iW1, iW2, iEq)
	vp.AddTerm(neg, iQO, iW3, iEq)
	vp.AddTerm(one, iQC, iEq)
	return vp
}

// nAndD carries the Construct N&D unit's factors (§4.4.1):
// N_j = w_j + β·id_j + γ and D_j = w_j + β·σ_j + γ, as affine MLEs whose
// entries are formed where they are read — the FracMLE batches and the
// PermCheck's first two rounds — so no table of them is ever stored.
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

// buildPermPoly assembles f_perm (Eq. 4):
//
//	f_perm = π·eq - p1·p2·eq + α(φ·D1·D2·D3)·eq - α(N1·N2·N3)·eq
func buildPermPoly(phi, pi, p1, p2 *poly.MLE, nd *nAndD, pcPoint []ff.Fr, alpha *ff.Fr) *sumcheck.VirtualPoly {
	vp := sumcheck.NewVirtualPoly(phi.NumVars)
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
	iEq := vp.AddEqMLE(pcPoint)
	one := ff.NewFr(1)
	var negOne, negAlpha ff.Fr
	negOne.Neg(&one)
	negAlpha.Neg(alpha)
	vp.AddTerm(one, iPi, iEq)
	vp.AddTerm(negOne, iP1, iP2, iEq)
	vp.AddTerm(*alpha, iPhi, iD1, iD2, iD3, iEq)
	vp.AddTerm(negAlpha, iN1, iN2, iN3, iEq)
	return vp
}

// openingPoints derives the 6 batch-evaluation points (§3.3.4).
func openingPoints(mu int, rGate, rPerm, rPI []ff.Fr) [][]ff.Fr {
	pts := make([][]ff.Fr, numPoints)
	pts[ptGate] = rGate
	pts[ptPerm] = rPerm
	// s0/s1: child points of the product-check — (b, r_perm[0..μ-2]).
	s0 := make([]ff.Fr, mu)
	s1 := make([]ff.Fr, mu)
	copy(s0[1:], rPerm[:mu-1])
	copy(s1[1:], rPerm[:mu-1])
	s1[0].SetOne()
	pts[ptS0] = s0
	pts[ptS1] = s1
	pts[ptRoot] = poly.ProductRootPoint(mu)
	// Public-input point: (r_pi, 0, …, 0).
	pi := make([]ff.Fr, mu)
	copy(pi, rPI)
	pts[ptPI] = pi
	return pts
}

// gatherPolys collects the 13 polynomials in schedule order.
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

// etaWeights returns η^k for each schedule entry.
func etaWeights(eta *ff.Fr) [NumEvaluations]ff.Fr {
	var out [NumEvaluations]ff.Fr
	out[0].SetOne()
	for k := 1; k < NumEvaluations; k++ {
		out[k].Mul(&out[k-1], eta)
	}
	return out
}

// ProofSizeBytes reports the serialized proof size: the metric in Table 4
// (5.09 KB at 2^24 gates for HyperPlonk).
func (p *Proof) ProofSizeBytes() int {
	const g1 = 96 // uncompressed
	const fr = 32
	size := 3*g1 + 2*g1 // witness + phi + pi commitments
	for _, sc := range []sumcheck.Proof{p.ZeroCheck, p.PermCheck, p.OpenCheck} {
		for _, r := range sc.Rounds {
			size += fr * len(r.Evals)
		}
	}
	size += fr * NumEvaluations
	size += g1 * len(p.Opening.Quotients)
	return size
}
