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

// Degree bounds of the two sumcheck instances (number of multilinear
// factors in the largest term, including the eq polynomial).
const (
	identityCheckDegree = 5 // α²·φ·D1·D2·D3·eq
	openCheckDegree     = 2 // y_j·k_j
)

// VerifyOptions tunes proof verification.
type VerifyOptions struct {
	// Exec is the execution context of the verifier's MLE kernels — the
	// public-input table evaluation; the zero value means one goroutine
	// per CPU and the shared arena.
	Exec poly.Options
	// Scheme, when non-empty, pins the commitment scheme the proof must
	// have been produced under ("pst", "zeromorph"); verification fails
	// up front on a mismatch. Empty accepts the verifying key's scheme.
	Scheme string
}

// Verify checks a HyperPlonk proof with default options and no
// cancellation.
func Verify(vk *VerifyingKey, pub []ff.Fr, proof *Proof) error {
	return VerifyWithContext(context.Background(), vk, pub, proof, nil)
}

// VerifyWithContext checks a HyperPlonk proof against the verifying key
// and public inputs. It replays the transcript, verifies both
// sumchecks, the gate/wiring/product/public-input identities over the 19
// batch evaluations, and the final PST pairing check. The context is
// checked before the transcript replay and again before the (pairing-
// heavy) opening check.
func VerifyWithContext(ctx context.Context, vk *VerifyingKey, pub []ff.Fr, proof *Proof, opts *VerifyOptions) error {
	if opts == nil {
		opts = &VerifyOptions{}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	mu := vk.Mu
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
	if pinned := opts.Scheme; pinned != "" {
		want, err := pcs.ParseScheme(pinned)
		if err != nil {
			return err
		}
		if proof.Scheme != want {
			return fmt.Errorf("hyperplonk: options pin scheme %v but proof carries %v", want, proof.Scheme)
		}
	}
	tr := transcript.New(transcriptDomain)
	tr.AppendBytes("vk", vk.Digest())
	tr.AppendFrs("public", pub)

	// ---- Step 1: witness commitments ----
	for j := range proof.WitnessComms {
		tr.AppendG1("witness", &proof.WitnessComms[j].P)
	}

	// ---- Steps 2-3: wiring commitments, then one zero-check of both identities ----
	beta := tr.ChallengeFr("permcheck.beta")
	gamma := tr.ChallengeFr("permcheck.gamma")
	tr.AppendG1("phi", &proof.PhiComm.P)
	tr.AppendG1("pi", &proof.PiComm.P)
	alpha := tr.ChallengeFr("zerocheck.alpha")
	zcPoint := tr.ChallengeFrs("zerocheck.t", mu)
	zcRes, err := sumcheck.Verify(ff.Fr{}, proof.IdentityCheck, mu, identityCheckDegree, tr)
	if err != nil {
		return fmt.Errorf("hyperplonk: zerocheck: %w", err)
	}
	r := zcRes.Challenges

	// ---- Step 4: batch evaluations ----
	piVars := publicVars(vk.NumPublic)
	rPI := tr.ChallengeFrs("pi.r", piVars)
	cl, pts := buildClaims(mu, r, rPI)
	tr.AppendFrs("batch.evals", proof.Evals[:])
	ev := func(point, poly int) ff.Fr { return cl.value(proof.Evals[:], point, poly) }

	// (a) The zero-check's final claim must equal
	// eq(t, r)·(f_gate + α·f_prod + α²·f_frac)(r) (buildIdentityPoly).
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
		t.Mul(&beta, sigma)
		d.Add(w, &t)
		d.Add(&d, &gamma)
		return d
	}
	nEval := func(w *ff.Fr, offset uint64) ff.Fr {
		id := poly.EvalIdentity(r, offset)
		var nv, t ff.Fr
		t.Mul(&beta, &id)
		nv.Add(w, &t)
		nv.Add(&nv, &gamma)
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
	f.Mul(&f, &alpha)
	f.Add(&f, &prod)
	f.Mul(&f, &alpha)
	f.Add(&f, &gateEval)
	eqZero := poly.EvalEq(zcPoint, r)
	f.Mul(&f, &eqZero)
	if !f.Equal(&zcRes.FinalClaim) {
		return errors.New("hyperplonk: gate and wiring identity check failed")
	}

	// (b) Grand product must equal 1 (the Π N/D = 1 permutation test).
	root := ev(pts.root, polyPi)
	if !root.IsOne() {
		return errors.New("hyperplonk: grand product check failed")
	}

	// (c) Public input consistency: w1 restricted to the PI sub-cube.
	piMLE := PublicInputMLE(pub, piVars)
	wantPI := piMLE.EvaluateWith(rPI, opts.Exec)
	gotPI := ev(pts.pi, polyW1)
	if !gotPI.Equal(&wantPI) {
		return errors.New("hyperplonk: public input check failed")
	}

	// ---- Step 5: polynomial opening ----
	if err := ctx.Err(); err != nil {
		return err
	}
	eta := tr.ChallengeFr("open.eta")
	weights := etaWeights(&eta)
	var claim ff.Fr
	for k := range cl.claims {
		var t ff.Fr
		t.Mul(&weights[k], &proof.Evals[k])
		claim.Add(&claim, &t)
	}
	ocRes, err := sumcheck.Verify(claim, proof.OpenCheck, mu, openCheckDegree, tr)
	if err != nil {
		return fmt.Errorf("hyperplonk: opencheck: %w", err)
	}
	rOpen := ocRes.Challenges

	// Commitment to g' = Σ_j k_j(r_open)·y_j, assembled homomorphically:
	// coefficient of polynomial q is Σ_{entries (j,q)} η^k·eq(point_j, r_open).
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
	kAtR := make([]ff.Fr, len(cl.points))
	for j, pt := range cl.points {
		kAtR[j] = poly.EvalEq(pt, rOpen)
	}
	coeffs := make([]ff.Fr, numPolys)
	for k, c := range cl.claims {
		var t ff.Fr
		t.Mul(&weights[k], &kAtR[c.point])
		coeffs[c.poly].Add(&coeffs[c.poly], &t)
	}
	cG := vk.PCS.Combine(comms[:], coeffs)
	ok, err := vk.PCS.Verify(cG, rOpen, ocRes.FinalClaim, proof.Opening)
	if err != nil {
		return fmt.Errorf("hyperplonk: opening: %w", err)
	}
	if !ok {
		return errors.New("hyperplonk: polynomial opening check failed")
	}
	return nil
}

// publicVars computes the PI sub-cube size for a public-input count.
func publicVars(numPublic int) int {
	l := 0
	for 1<<l < numPublic {
		l++
	}
	return l
}
