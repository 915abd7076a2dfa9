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

// Degree bounds of the three sumcheck instances (number of multilinear
// factors in the largest term, including the eq polynomial).
const (
	zeroCheckDegree = 4 // qM·w1·w2·eq
	permCheckDegree = 5 // α·φ·D1·D2·D3·eq
	openCheckDegree = 2 // y_j·k_j
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
// and public inputs. It replays the transcript, verifies all three
// sumchecks, the gate/wiring/product/public-input identities over the 22
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
	tr := transcript.New("zkspeed.hyperplonk.v1")
	tr.AppendBytes("vk", vk.Digest())
	tr.AppendFrs("public", pub)

	// ---- Step 1: witness commitments ----
	for j := range proof.WitnessComms {
		tr.AppendG1("witness", &proof.WitnessComms[j].P)
	}

	// ---- Step 2: gate identity ----
	zcPoint := tr.ChallengeFrs("zerocheck.t", mu)
	zcRes, err := sumcheck.Verify(ff.Fr{}, proof.ZeroCheck, mu, zeroCheckDegree, tr)
	if err != nil {
		return fmt.Errorf("hyperplonk: zerocheck: %w", err)
	}
	rGate := zcRes.Challenges

	// ---- Step 3: wiring identity ----
	beta := tr.ChallengeFr("permcheck.beta")
	gamma := tr.ChallengeFr("permcheck.gamma")
	tr.AppendG1("phi", &proof.PhiComm.P)
	tr.AppendG1("pi", &proof.PiComm.P)
	alpha := tr.ChallengeFr("permcheck.alpha")
	pcPoint := tr.ChallengeFrs("permcheck.t", mu)
	pcRes, err := sumcheck.Verify(ff.Fr{}, proof.PermCheck, mu, permCheckDegree, tr)
	if err != nil {
		return fmt.Errorf("hyperplonk: permcheck: %w", err)
	}
	rPerm := pcRes.Challenges

	// ---- Step 4: batch evaluations ----
	piVars := publicVars(vk.NumPublic)
	rPI := tr.ChallengeFrs("pi.r", piVars)
	points := openingPoints(mu, rGate, rPerm, rPI)
	tr.AppendFrs("batch.evals", proof.Evals[:])

	ev := func(point, poly int) ff.Fr {
		v, ok := proof.evalOf(point, poly)
		if !ok {
			panic("hyperplonk: evaluation missing from schedule")
		}
		return v
	}

	// (a) Gate identity final check:
	// zc final claim == eq(t, r_gate)·(qL w1 + qR w2 + qM w1 w2 - qO w3 + qC)(r_gate).
	var gateEval, t1 ff.Fr
	qlE, qrE, qmE, qoE, qcE := ev(ptGate, polyQL), ev(ptGate, polyQR), ev(ptGate, polyQM), ev(ptGate, polyQO), ev(ptGate, polyQC)
	w1g, w2g, w3g := ev(ptGate, polyW1), ev(ptGate, polyW2), ev(ptGate, polyW3)
	t1.Mul(&qlE, &w1g)
	gateEval.Add(&gateEval, &t1)
	t1.Mul(&qrE, &w2g)
	gateEval.Add(&gateEval, &t1)
	t1.Mul(&qmE, &w1g)
	t1.Mul(&t1, &w2g)
	gateEval.Add(&gateEval, &t1)
	t1.Mul(&qoE, &w3g)
	gateEval.Sub(&gateEval, &t1)
	gateEval.Add(&gateEval, &qcE)
	eqGate := poly.EvalEq(zcPoint, rGate)
	gateEval.Mul(&gateEval, &eqGate)
	if !gateEval.Equal(&zcRes.FinalClaim) {
		return errors.New("hyperplonk: gate identity check failed")
	}

	// (b) Wiring identity final check (Eq. 4 at r_perm).
	n := uint64(1) << uint(mu)
	w1p, w2p, w3p := ev(ptPerm, polyW1), ev(ptPerm, polyW2), ev(ptPerm, polyW3)
	s1E, s2E, s3E := ev(ptPerm, polySigma1), ev(ptPerm, polySigma2), ev(ptPerm, polySigma3)
	phiP, piP := ev(ptPerm, polyPhi), ev(ptPerm, polyPi)
	dEval := func(w, sigma *ff.Fr) ff.Fr {
		var d, t ff.Fr
		t.Mul(&beta, sigma)
		d.Add(w, &t)
		d.Add(&d, &gamma)
		return d
	}
	nEval := func(w *ff.Fr, offset uint64) ff.Fr {
		id := poly.EvalIdentity(rPerm, offset)
		var nv, t ff.Fr
		t.Mul(&beta, &id)
		nv.Add(w, &t)
		nv.Add(&nv, &gamma)
		return nv
	}
	d1 := dEval(&w1p, &s1E)
	d2 := dEval(&w2p, &s2E)
	d3 := dEval(&w3p, &s3E)
	n1 := nEval(&w1p, 0)
	n2 := nEval(&w2p, n)
	n3 := nEval(&w3p, 2*n)
	phiS0, piS0 := ev(ptS0, polyPhi), ev(ptS0, polyPi)
	phiS1, piS1 := ev(ptS1, polyPhi), ev(ptS1, polyPi)
	msb := rPerm[mu-1]
	p1E := poly.MergeEval(&phiS0, &piS0, &msb)
	p2E := poly.MergeEval(&phiS1, &piS1, &msb)

	var perm, tD, tN ff.Fr
	perm = piP
	t1.Mul(&p1E, &p2E)
	perm.Sub(&perm, &t1)
	tD.Mul(&phiP, &d1)
	tD.Mul(&tD, &d2)
	tD.Mul(&tD, &d3)
	tN.Mul(&n1, &n2)
	tN.Mul(&tN, &n3)
	tD.Sub(&tD, &tN)
	tD.Mul(&tD, &alpha)
	perm.Add(&perm, &tD)
	eqPerm := poly.EvalEq(pcPoint, rPerm)
	perm.Mul(&perm, &eqPerm)
	if !perm.Equal(&pcRes.FinalClaim) {
		return errors.New("hyperplonk: wiring identity check failed")
	}

	// (c) Grand product must equal 1 (the Π N/D = 1 permutation test).
	root := ev(ptRoot, polyPi)
	if !root.IsOne() {
		return errors.New("hyperplonk: grand product check failed")
	}

	// (d) Public input consistency: w1 restricted to the PI sub-cube.
	piMLE := PublicInputMLE(pub, piVars)
	wantPI := piMLE.EvaluateWith(rPI, opts.Exec)
	gotPI := ev(ptPI, polyW1)
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
	vs := make([]ff.Fr, numPoints)
	for k, e := range evalSchedule {
		var t ff.Fr
		t.Mul(&weights[k], &proof.Evals[k])
		vs[e.point].Add(&vs[e.point], &t)
	}
	for j := range vs {
		claim.Add(&claim, &vs[j])
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
	kAtR := make([]ff.Fr, numPoints)
	for j := 0; j < numPoints; j++ {
		kAtR[j] = poly.EvalEq(points[j], rOpen)
	}
	coeffs := make([]ff.Fr, numPolys)
	for k, e := range evalSchedule {
		var t ff.Fr
		t.Mul(&weights[k], &kAtR[e.point])
		coeffs[e.poly].Add(&coeffs[e.poly], &t)
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
