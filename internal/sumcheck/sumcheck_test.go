package sumcheck

import (
	"math/big"
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

func randFr(rng *rand.Rand) ff.Fr {
	v := new(big.Int).Rand(rng, ff.FrModulusBig())
	var e ff.Fr
	e.SetBigInt(v)
	return e
}

func randMLE(rng *rand.Rand, nv int) *poly.MLE {
	evals := make([]ff.Fr, 1<<nv)
	for i := range evals {
		evals[i] = randFr(rng)
	}
	return poly.NewMLE(evals)
}

// buildTestPoly creates a heterogeneous virtual polynomial resembling
// f_zero (Eq. 3): terms of degree 1..maxDeg over shared MLEs.
func buildTestPoly(rng *rand.Rand, nv, nMLE, maxDeg int) (*VirtualPoly, *VirtualPoly) {
	vp := NewVirtualPoly(nv)
	vpCopy := NewVirtualPoly(nv)
	for i := 0; i < nMLE; i++ {
		m := randMLE(rng, nv)
		vp.AddMLE(m)
		vpCopy.AddMLE(m.Clone())
	}
	for d := 1; d <= maxDeg; d++ {
		idx := make([]int, d)
		for k := range idx {
			idx[k] = rng.Intn(nMLE)
		}
		c := randFr(rng)
		vp.AddTerm(c, idx...)
		vpCopy.AddTerm(c, idx...)
	}
	return vp, vpCopy
}

func TestSumcheckCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range []struct{ nv, nMLE, deg int }{
		{1, 2, 2}, {3, 3, 2}, {5, 5, 4}, {7, 9, 5}, {4, 2, 1},
	} {
		vp, vpOracle := buildTestPoly(rng, tc.nv, tc.nMLE, tc.deg)
		claim := vp.SumOverHypercube()
		deg := vp.Degree()

		trP := transcript.New("sc-test")
		res := Prove(vp, trP)

		trV := transcript.New("sc-test")
		vres, err := Verify(claim, res.Proof, tc.nv, deg, trV)
		if err != nil {
			t.Fatalf("nv=%d: verify failed: %v", tc.nv, err)
		}
		// Verifier and prover must agree on the challenge point.
		for i := range vres.Challenges {
			if !vres.Challenges[i].Equal(&res.Challenges[i]) {
				t.Fatal("challenge divergence")
			}
		}
		// Oracle check: final claim equals the virtual poly at r.
		want := vpOracle.EvaluateAt(vres.Challenges)
		if !vres.FinalClaim.Equal(&want) {
			t.Fatalf("nv=%d: final claim mismatch", tc.nv)
		}
		// FinalEvals must match per-MLE evaluation.
		for k := range vpOracle.MLEs {
			w := vpOracle.MLEs[k].Evaluate(vres.Challenges)
			if !res.FinalEvals[k].Equal(&w) {
				t.Fatalf("final eval mismatch for MLE %d", k)
			}
		}
	}
}

// TestSumcheckSoundnessWrongClaim: the verifier derives each round's p(1)
// from the running claim, so a proof replayed against a wrong claim
// passes the rounds but ends at a final claim the oracle refutes.
func TestSumcheckSoundnessWrongClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	vp, vpOracle := buildTestPoly(rng, 5, 4, 3)
	claim := vp.SumOverHypercube()
	var bad ff.Fr
	bad.SetOne()
	bad.Add(&claim, &bad)
	deg := vp.Degree()

	trP := transcript.New("sc-test")
	res := Prove(vp, trP)

	trV := transcript.New("sc-test")
	vres, err := Verify(bad, res.Proof, 5, deg, trV)
	if err != nil {
		return
	}
	if want := vpOracle.EvaluateAt(vres.Challenges); vres.FinalClaim.Equal(&want) {
		t.Fatal("verifier accepted a wrong claim")
	}
}

func TestSumcheckSoundnessTamperedRound(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	vp, vpOracle := buildTestPoly(rng, 5, 4, 3)
	claim := vp.SumOverHypercube()
	deg := vp.Degree()

	trP := transcript.New("sc-test")
	res := Prove(vp, trP)

	// Tamper with a middle round evaluation.
	res.Proof.Rounds[2].Evals[1] = randFr(rng)

	trV := transcript.New("sc-test")
	vres, err := Verify(claim, res.Proof, 5, deg, trV)
	if err == nil {
		// The rounds carry no check of their own (p(1) is derived from
		// the claim): the oracle check must catch the tamper.
		want := vpOracle.EvaluateAt(vres.Challenges)
		if vres.FinalClaim.Equal(&want) {
			t.Fatal("tampered proof fully verified")
		}
	}
}

func TestSumcheckRejectsMalformedProofs(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	vp, _ := buildTestPoly(rng, 4, 3, 2)
	claim := vp.SumOverHypercube()
	deg := vp.Degree()
	trP := transcript.New("sc-test")
	res := Prove(vp, trP)

	// wrong number of rounds
	short := Proof{Rounds: res.Proof.Rounds[:3]}
	if _, err := Verify(claim, short, 4, deg, transcript.New("sc-test")); err == nil {
		t.Fatal("accepted truncated proof")
	}
	// wrong number of evals in a round: one short, or the deg+1 values
	// of a round that still sends p(1)
	short1 := Proof{Rounds: append([]RoundPoly(nil), res.Proof.Rounds...)}
	short1.Rounds[0] = RoundPoly{Evals: short1.Rounds[0].Evals[:deg-1]}
	if _, err := Verify(claim, short1, 4, deg, transcript.New("sc-test")); err == nil {
		t.Fatal("accepted malformed round")
	}
	long := Proof{Rounds: append([]RoundPoly(nil), res.Proof.Rounds...)}
	long.Rounds[1] = RoundPoly{Evals: append(append([]ff.Fr(nil), long.Rounds[1].Evals...), ff.Fr{})}
	if _, err := Verify(claim, long, 4, deg, transcript.New("sc-test")); err == nil {
		t.Fatal("accepted a round of the old length")
	}
	// a degree-0 bound leaves nothing to send
	if _, err := Verify(claim, res.Proof, 4, 0, transcript.New("sc-test")); err == nil {
		t.Fatal("accepted degree 0")
	}
}

func TestInterpolateAt(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	// p(X) = 3X³ - 2X² + 7X + 5; evaluate at 0..3 then interpolate.
	evalPoly := func(x *ff.Fr) ff.Fr {
		c3 := ff.NewFr(3)
		c2 := ff.NewFr(2)
		c1 := ff.NewFr(7)
		c0 := ff.NewFr(5)
		var x2, x3, out, tmp ff.Fr
		x2.Mul(x, x)
		x3.Mul(&x2, x)
		out.Mul(&c3, &x3)
		tmp.Mul(&c2, &x2)
		out.Sub(&out, &tmp)
		tmp.Mul(&c1, x)
		out.Add(&out, &tmp)
		out.Add(&out, &c0)
		return out
	}
	evals := make([]ff.Fr, 4)
	for j := 0; j < 4; j++ {
		x := ff.NewFr(uint64(j))
		evals[j] = evalPoly(&x)
	}
	// at sample points
	for j := 0; j < 4; j++ {
		x := ff.NewFr(uint64(j))
		got := InterpolateAt(evals, &x)
		if !got.Equal(&evals[j]) {
			t.Fatal("interpolation at sample point wrong")
		}
	}
	// at random points
	for i := 0; i < 20; i++ {
		r := randFr(rng)
		got := InterpolateAt(evals, &r)
		want := evalPoly(&r)
		if !got.Equal(&want) {
			t.Fatal("interpolation at random point wrong")
		}
	}
}

func TestZeroCheckShapedPoly(t *testing.T) {
	// Build an Eq.-3-like polynomial whose hypercube sum is zero and prove
	// it: f = qL·w1·eq + qM·w1·w2·eq - qO·w3·eq with w3 adjusted so each
	// row is zero.
	rng := rand.New(rand.NewSource(66))
	nv := 5
	n := 1 << nv
	qL := randMLE(rng, nv)
	qM := randMLE(rng, nv)
	qO := make([]ff.Fr, n)
	w1 := randMLE(rng, nv)
	w2 := randMLE(rng, nv)
	w3 := make([]ff.Fr, n)
	for i := 0; i < n; i++ {
		// choose qO=1, w3 = qL w1 + qM w1 w2 so the row vanishes
		qO[i].SetOne()
		var t1, t2 ff.Fr
		t1.Mul(&qL.Evals[i], &w1.Evals[i])
		t2.Mul(&qM.Evals[i], &w1.Evals[i])
		t2.Mul(&t2, &w2.Evals[i])
		w3[i].Add(&t1, &t2)
	}
	point := make([]ff.Fr, nv)
	for i := range point {
		point[i] = randFr(rng)
	}
	eq := poly.EqTable(point)

	vp := NewVirtualPoly(nv)
	iQL := vp.AddMLE(qL)
	iQM := vp.AddMLE(qM)
	iQO := vp.AddMLE(poly.NewMLE(qO))
	iW1 := vp.AddMLE(w1)
	iW2 := vp.AddMLE(w2)
	iW3 := vp.AddMLE(poly.NewMLE(w3))
	iEq := vp.AddMLE(eq)
	one := ff.NewFr(1)
	var negOne ff.Fr
	negOne.Neg(&one)
	vp.AddTerm(one, iQL, iW1, iEq)
	vp.AddTerm(one, iQM, iW1, iW2, iEq)
	vp.AddTerm(negOne, iQO, iW3, iEq)

	claim := vp.SumOverHypercube()
	if !claim.IsZero() {
		t.Fatal("zerocheck-shaped sum should be zero")
	}
	deg := vp.Degree()
	if deg != 4 {
		t.Fatalf("degree = %d, want 4", deg)
	}
	trP := transcript.New("zc")
	res := Prove(vp, trP)
	trV := transcript.New("zc")
	if _, err := Verify(ff.Fr{}, res.Proof, nv, deg, trV); err != nil {
		t.Fatalf("zerocheck verify failed: %v", err)
	}
}

func BenchmarkSumcheckRound12(b *testing.B) {
	rng := rand.New(rand.NewSource(67))
	nv := 12
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		vp, _ := buildTestPoly(rng, nv, 9, 4)
		tr := transcript.New("bench")
		b.StartTimer()
		Prove(vp, tr)
	}
}
