package hyperplonk

import (
	"context"
	"errors"
	"fmt"

	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/sumcheck"
	"zkspeed/internal/transcript"
)

// Degree bounds of the two sumchecks' round polynomials: the identity
// check sends h, whose degree is f's without the eq factor, the opening
// check its whole round polynomial (the largest term's factor count).
const (
	identityCheckDegree = 4 // α²·φ·D1·D2·D3
	openCheckDegree     = 2 // y_j·k_j
)

// VerifyOptions tunes proof verification.
type VerifyOptions struct {
	// Exec is the execution context of the verifier's kernels — the
	// public-input table evaluation, and the opening check's Miller loops,
	// split over Exec.Procs goroutines beside its MSM; the zero value
	// means one goroutine per CPU and the shared arena.
	Exec poly.Options
}

// Verify checks a HyperPlonk proof with default options and no
// cancellation.
func Verify(vk *VerifyingKey, pub []ff.Fr, proof *Proof) error {
	return VerifyWithContext(context.Background(), vk, pub, proof, nil)
}

// VerifyWithContext checks a HyperPlonk proof against the verifying key
// and public inputs. It replays the transcript and both sumchecks
// (replay), checks the gate/wiring/product identities over the batch
// evaluations — 17 from the proof, 2 its own — and runs the final PST
// pairing check. The context is checked before the transcript replay and
// again before the (pairing-heavy) opening check.
func VerifyWithContext(ctx context.Context, vk *VerifyingKey, pub []ff.Fr, proof *Proof, opts *VerifyOptions) error {
	if opts == nil {
		opts = &VerifyOptions{}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(pub) != vk.NumPublic {
		return fmt.Errorf("hyperplonk: got %d public inputs, circuit has %d", len(pub), vk.NumPublic)
	}
	// Cross-scheme rejection: a proof produced under one backend must
	// fail cleanly against a key preprocessed under another — the
	// opening-proof shapes differ, so this is checked before any
	// commitment arithmetic.
	if got, want := proof.Scheme, vk.PCS.Scheme(); got != want {
		return fmt.Errorf("hyperplonk: proof carries scheme %v, verifying key uses %v", got, want)
	}
	rp, err := replay(vk, pub, proof, opts.Exec)
	if err != nil {
		return err
	}
	mu, r := vk.Mu, rp.zc.Challenges
	pts := rp.pts
	ev := func(point, poly int) ff.Fr { return rp.cl.value(rp.evals[:], point, poly) }

	// The zero-check's final claim must equal
	// (f_gate + α·f_prod + α²·f_frac)(r) (buildIdentityPoly): its rounds
	// carry h, so the eq(t, r) factor is already divided out.
	var gateEval, t1 ff.Fr
	qlE, qrE, qmE, qoE, qcE := ev(pts.zero, polyQL), ev(pts.zero, polyQR), ev(pts.zero, polyQM), ev(pts.zero, polyQO), ev(pts.zero, polyQC)
	w1E, w2E, w3E := ev(pts.zero, polyW1), ev(pts.zero, polyW2), ev(pts.zero, polyW3)
	t1.Mul(&qlE, &w1E)
	gateEval.Add(&gateEval, &t1)
	t1.Mul(&qrE, &w2E)
	gateEval.Add(&gateEval, &t1)
	t1.Mul(&qmE, &w1E)
	t1.Mul(&t1, &w2E)
	gateEval.Add(&gateEval, &t1)
	t1.Mul(&qoE, &w3E)
	gateEval.Sub(&gateEval, &t1)
	gateEval.Add(&gateEval, &qcE)

	n := uint64(1) << uint(mu)
	s1E, s2E, s3E := ev(pts.zero, polySigma1), ev(pts.zero, polySigma2), ev(pts.zero, polySigma3)
	phiE, piE := ev(pts.zero, polyPhi), ev(pts.zero, polyPi)
	dEval := func(w, sigma *ff.Fr) ff.Fr {
		var d, t ff.Fr
		t.Mul(&rp.beta, sigma)
		d.Add(w, &t)
		d.Add(&d, &rp.gamma)
		return d
	}
	nEval := func(w *ff.Fr, offset uint64) ff.Fr {
		id := poly.EvalIdentity(r, offset)
		var nv, t ff.Fr
		t.Mul(&rp.beta, &id)
		nv.Add(w, &t)
		nv.Add(&nv, &rp.gamma)
		return nv
	}
	d1 := dEval(&w1E, &s1E)
	d2 := dEval(&w2E, &s2E)
	d3 := dEval(&w3E, &s3E)
	n1 := nEval(&w1E, 0)
	n2 := nEval(&w2E, n)
	n3 := nEval(&w3E, 2*n)
	phiS0, piS0 := ev(pts.s0, polyPhi), ev(pts.s0, polyPi)
	phiS1, piS1 := ev(pts.s1, polyPhi), ev(pts.s1, polyPi)
	msb := r[mu-1]
	p1E := poly.MergeEval(&phiS0, &piS0, &msb)
	p2E := poly.MergeEval(&phiS1, &piS1, &msb)

	var prod, frac, tN ff.Fr
	t1.Mul(&p1E, &p2E)
	prod.Sub(&piE, &t1)
	frac.Mul(&phiE, &d1)
	frac.Mul(&frac, &d2)
	frac.Mul(&frac, &d3)
	tN.Mul(&n1, &n2)
	tN.Mul(&tN, &n3)
	frac.Sub(&frac, &tN)
	// f = f_gate + α·(f_prod + α·f_frac), by Horner.
	f := frac
	f.Mul(&f, &rp.alpha)
	f.Add(&f, &prod)
	f.Mul(&f, &rp.alpha)
	f.Add(&f, &gateEval)
	if !f.Equal(&rp.zc.FinalClaim) {
		return errors.New("hyperplonk: gate and wiring identity check failed")
	}
	// The grand product's root (Π N/D = 1) and the public inputs need no
	// check here: the verifier supplied their values to the batch
	// opening, so a proof whose π or w1 disagrees fails the opening.

	// ---- Step 5: polynomial opening ----
	if err := ctx.Err(); err != nil {
		return err
	}
	// Opening of g' = Σ_j k_j(r_open)·y_j, checked against the commitments
	// homomorphically: the coefficient of polynomial q is
	// Σ_{entries (j,q)} η^k·eq(point_j, r_open), and VerifyWith folds the
	// 13 commitments into the opening check's own MSM.
	rOpen := rp.oc.Challenges
	comms := [numPolys]pcs.Commitment{
		polyQL:     vk.SelectorComms[0],
		polyQR:     vk.SelectorComms[1],
		polyQM:     vk.SelectorComms[2],
		polyQO:     vk.SelectorComms[3],
		polyQC:     vk.SelectorComms[4],
		polySigma1: vk.SigmaComms[0],
		polySigma2: vk.SigmaComms[1],
		polySigma3: vk.SigmaComms[2],
		polyW1:     proof.WitnessComms[0],
		polyW2:     proof.WitnessComms[1],
		polyW3:     proof.WitnessComms[2],
		polyPhi:    proof.PhiComm,
		polyPi:     proof.PiComm,
	}
	kAtR := make([]ff.Fr, len(rp.cl.points))
	for j, pt := range rp.cl.points {
		kAtR[j] = poly.EvalEq(pt, rOpen)
	}
	weights := etaWeights(&rp.eta)
	coeffs := make([]ff.Fr, numPolys)
	for k, c := range rp.cl.claims {
		var t ff.Fr
		t.Mul(&weights[k], &kAtR[c.point])
		coeffs[c.poly].Add(&coeffs[c.poly], &t)
	}
	ok, err := vk.PCS.VerifyWith(comms[:], coeffs, rOpen, rp.oc.FinalClaim, proof.Opening, opts.Exec)
	if err != nil {
		return fmt.Errorf("hyperplonk: opening: %w", err)
	}
	if !ok {
		return errors.New("hyperplonk: polynomial opening check failed")
	}
	return nil
}

// replayed is what the verifier's Fiat–Shamir replay yields: every
// challenge, in draw order, the sumchecks' outcomes and the full claim
// list's values.
type replayed struct {
	beta, gamma, alpha ff.Fr
	zcPoint            []ff.Fr               // t, the zero-check's eq point
	zc                 sumcheck.VerifyResult // r and F(r)
	rPI                []ff.Fr
	cl                 *claimList
	pts                claimPoints
	evals              [numClaims]ff.Fr // the proof's 17, then the verifier's 2
	eta                ff.Fr
	oc                 sumcheck.VerifyResult // r_open and the opened value
}

// replay runs the verifier's transcript over a proof: it absorbs the
// statement (vk digest, public inputs) before the first challenge, every
// sent value before the challenges that follow it, and fills in the two
// evaluations the verifier supplies from what was absorbed before the
// batch evaluations. It fails only on a malformed sumcheck.
func replay(vk *VerifyingKey, pub []ff.Fr, proof *Proof, exec poly.Options) (*replayed, error) {
	rp := &replayed{}
	mu := vk.Mu
	tr := transcript.New(transcriptDomain)
	tr.AppendBytes("vk", vk.Digest())
	tr.AppendFrs("public", pub)

	// ---- Step 1: witness commitments ----
	for j := range proof.WitnessComms {
		tr.AppendG1("witness", &proof.WitnessComms[j].P)
	}

	// ---- Steps 2-3: wiring commitments, then one zero-check of both identities ----
	rp.beta = tr.ChallengeFr("permcheck.beta")
	rp.gamma = tr.ChallengeFr("permcheck.gamma")
	tr.AppendG1("phi", &proof.PhiComm.P)
	tr.AppendG1("pi", &proof.PiComm.P)
	rp.alpha = tr.ChallengeFr("zerocheck.alpha")
	rp.zcPoint = tr.ChallengeFrs("zerocheck.t", mu)
	var err error
	if rp.zc, err = sumcheck.VerifyEq(ff.Fr{}, rp.zcPoint, proof.IdentityCheck, identityCheckDegree, tr); err != nil {
		return nil, fmt.Errorf("hyperplonk: zerocheck: %w", err)
	}

	// ---- Step 4: batch evaluations ----
	piVars := publicVars(vk.NumPublic)
	rp.rPI = tr.ChallengeFrs("pi.r", piVars)
	rp.cl, rp.pts = buildClaims(mu, rp.zc.Challenges, rp.rPI)
	tr.AppendFrs("batch.evals", proof.Evals[:])
	copy(rp.evals[:], proof.Evals[:])
	rp.evals[NumEvaluations].SetOne() // π at the product root
	rp.evals[NumEvaluations+1] = PublicInputMLE(pub, piVars).EvaluateWith(rp.rPI, exec)

	// ---- Step 5: the opening check's sumcheck ----
	rp.eta = tr.ChallengeFr("open.eta")
	weights := etaWeights(&rp.eta)
	var claim ff.Fr
	for k := range rp.evals {
		var t ff.Fr
		t.Mul(&weights[k], &rp.evals[k])
		claim.Add(&claim, &t)
	}
	if rp.oc, err = sumcheck.Verify(claim, proof.OpenCheck, mu, openCheckDegree, tr); err != nil {
		return nil, fmt.Errorf("hyperplonk: opencheck: %w", err)
	}
	return rp, nil
}

// publicVars computes the PI sub-cube size for a public-input count.
func publicVars(numPublic int) int {
	l := 0
	for 1<<l < numPublic {
		l++
	}
	return l
}
