package curve

import (
	"math/big"
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
)

func randG1(rng *rand.Rand) G1Affine {
	var g, p G1Jac
	ga := G1Generator()
	g.FromAffine(&ga)
	s := randScalar(rng)
	p.ScalarMul(&g, &s)
	var out G1Affine
	out.FromJacobian(&p)
	return out
}

func randG2(rng *rand.Rand) G2Affine {
	var g, p G2Jac
	ga := G2Generator()
	g.FromAffine(&ga)
	s := randScalar(rng)
	p.ScalarMul(&g, &s)
	var out G2Affine
	out.FromJacobian(&p)
	return out
}

func randGT12(rng *rand.Rand) ff.Fp12 {
	var f ff.Fp12
	for _, c := range []*ff.Fp{
		&f.C0.B0.A0, &f.C0.B0.A1, &f.C0.B1.A0, &f.C0.B1.A1, &f.C0.B2.A0, &f.C0.B2.A1,
		&f.C1.B0.A0, &f.C1.B0.A1, &f.C1.B1.A0, &f.C1.B1.A1, &f.C1.B2.A0, &f.C1.B2.A1,
	} {
		c.SetBigInt(new(big.Int).Rand(rng, ff.FpModulusBig()))
	}
	return f
}

func cube(x *ff.Fp12) ff.Fp12 {
	var c ff.Fp12
	c.Mul(x, x)
	c.Mul(&c, x)
	return c
}

// TestPairingMatchesOracle pins the twist-side Miller loop and the
// structured final exponentiation, separately and together, to the
// first-principles pairing in pairing_ref_test.go.
func TestPairingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g1, g2 := G1Generator(), G2Generator()
	var negG1 G1Affine
	negG1.Neg(&g1)
	var negG2 G2Affine
	negG2.Neg(&g2)
	type pairCase struct {
		name string
		p    G1Affine
		q    G2Affine
	}
	cases := []pairCase{
		{"generators", g1, g2},
		{"negP", negG1, g2},
		{"negQ", g1, negG2},
		{"infP", G1Infinity(), g2},
		{"infQ", g1, G2Infinity()},
		{"infBoth", G1Infinity(), G2Infinity()},
	}
	for i := 0; i < 4; i++ {
		cases = append(cases, pairCase{"random", randG1(rng), randG2(rng)})
	}
	for _, c := range cases {
		fast, err := MillerLoop(&c.p, &c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		ref, err := refMillerLoop(&c.p, &c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The two Miller values differ by a subfield factor only.
		viaFast, viaRef := refFinalExponentiation(&fast), refFinalExponentiation(&ref)
		if !viaFast.Equal(&viaRef) {
			t.Fatalf("%s: Miller loops disagree after the reference final exponentiation", c.name)
		}
		got, err := Pair(&c.p, &c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := cube(&viaRef); !got.Equal(&want) {
			t.Fatalf("%s: Pair != oracle³", c.name)
		}
		if (c.p.Inf || c.q.Inf) != got.IsOne() {
			t.Fatalf("%s: degenerate exactly when an argument is infinite, got one=%v", c.name, got.IsOne())
		}
	}
}

func TestFinalExponentiationIsOracleCubed(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	var one ff.Fp12
	one.SetOne()
	inputs := []ff.Fp12{one}
	for i := 0; i < 4; i++ {
		inputs = append(inputs, randGT12(rng))
	}
	for i := range inputs {
		got := FinalExponentiation(&inputs[i])
		ref := refFinalExponentiation(&inputs[i])
		if want := cube(&ref); !got.Equal(&want) {
			t.Fatalf("input %d: fast final exponentiation != oracle³", i)
		}
		var rth ff.Fp12
		rth.Exp(&got, ff.FrModulusBig())
		if !rth.IsOne() {
			t.Fatalf("input %d: result not of order dividing r", i)
		}
	}
}

func TestMultiMillerIsProductOfSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, n := range []int{0, 1, 2, 17} {
		ps := make([]G1Affine, n)
		qs := make([]G2Affine, n)
		var want ff.Fp12
		want.SetOne()
		for i := 0; i < n; i++ {
			ps[i], qs[i] = randG1(rng), randG2(rng)
			switch {
			case n == 17 && i == 3:
				ps[i] = G1Infinity()
			case n == 17 && i == 11:
				qs[i] = G2Infinity()
			}
			f, err := MillerLoop(&ps[i], &qs[i])
			if err != nil {
				t.Fatal(err)
			}
			want.Mul(&want, &f)
		}
		got, err := MultiMillerLoop(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&want) {
			t.Fatalf("n=%d: shared loop != product of single loops", n)
		}
		ok, err := PairingCheck(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (n == 0) {
			t.Fatalf("n=%d: PairingCheck = %v on random pairs", n, ok)
		}
	}
}

// TestPreparedPairingMatchesOracle pins the prepared consumer to the
// first-principles oracle: the product of the oracle's Miller values,
// reduced once, cubed, must equal the prepared loop under the fast final
// exponentiation, with infinity on either side of some pairs.
func TestPreparedPairingMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for _, n := range []int{1, 2, 17} {
		for _, inf := range []string{"none", "P", "Q"} {
			ps := make([]G1Affine, n)
			qs := make([]G2Affine, n)
			var refF ff.Fp12
			refF.SetOne()
			for i := 0; i < n; i++ {
				ps[i], qs[i] = randG1(rng), randG2(rng)
				if i == n/2 {
					switch inf {
					case "P":
						ps[i] = G1Infinity()
					case "Q":
						qs[i] = G2Infinity()
					}
				}
				f, err := refMillerLoop(&ps[i], &qs[i])
				if err != nil {
					t.Fatal(err)
				}
				refF.Mul(&refF, &f)
			}
			prep, err := PrepareG2(qs...)
			if err != nil {
				t.Fatal(err)
			}
			f, err := PreparedMillerLoop(ps, prep)
			if err != nil {
				t.Fatal(err)
			}
			ref := refFinalExponentiation(&refF)
			got := FinalExponentiation(&f)
			if want := cube(&ref); !got.Equal(&want) {
				t.Fatalf("n=%d inf=%s: prepared loop != oracle³", n, inf)
			}
			ok, err := PreparedPairingCheck(ps, prep)
			if err != nil {
				t.Fatal(err)
			}
			if wantOne := n == 1 && inf != "none"; ok != wantOne {
				t.Fatalf("n=%d inf=%s: PreparedPairingCheck = %v", n, inf, ok)
			}
		}
	}
}

// TestPreparedLinesReused prepares one set of G2 lines and checks it
// against 100 different G1 vectors, half of them balanced products, each
// against a fresh PairingCheck: the lines carry no state between checks.
func TestPreparedLinesReused(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const n = 3
	g1, g2 := G1Generator(), G2Generator()
	var g1j G1Jac
	g1j.FromAffine(&g1)
	var g2j G2Jac
	g2j.FromAffine(&g2)
	// qs = (H, [s_1]H, …, [s_{n-1}]H); a balanced vector is
	// (-(Σ a_i·s_i)·G, a_1·G, …, a_{n-1}·G).
	qs := []G2Affine{g2}
	ss := make([]ff.Fr, n)
	for i := 1; i < n; i++ {
		ss[i] = randScalar(rng)
		var qj G2Jac
		var q G2Affine
		q.FromJacobian(qj.ScalarMul(&g2j, &ss[i]))
		qs = append(qs, q)
	}
	prep, err := PrepareG2(qs...)
	if err != nil {
		t.Fatal(err)
	}
	for it := 0; it < 100; it++ {
		ps := make([]G1Affine, n)
		var sum ff.Fr
		for i := 1; i < n; i++ {
			a := randScalar(rng)
			var pj G1Jac
			ps[i].FromJacobian(pj.ScalarMul(&g1j, &a))
			a.Mul(&a, &ss[i])
			sum.Add(&sum, &a)
		}
		balanced := it%2 == 0
		if !balanced {
			sum.Add(&sum, &ss[1])
		}
		sum.Neg(&sum)
		var pj G1Jac
		ps[0].FromJacobian(pj.ScalarMul(&g1j, &sum))

		fresh, err := MultiMillerLoop(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PreparedMillerLoop(ps, prep)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(&fresh) {
			t.Fatalf("input %d: prepared Miller value != fresh one", it)
		}
		want, err := PairingCheck(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := PreparedPairingCheck(ps, prep)
		if err != nil {
			t.Fatal(err)
		}
		if ok != want || ok != balanced {
			t.Fatalf("input %d: prepared %v, fresh %v, balanced %v", it, ok, want, balanced)
		}
	}
}

// TestPairingCheckTelescopes is the shape the PCS verifiers use: scalars
// moved between the sides of many pairs must cancel.
func TestPairingCheckTelescopes(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const n = 5
	g1, g2 := G1Generator(), G2Generator()
	var g1j G1Jac
	g1j.FromAffine(&g1)
	var g2j G2Jac
	g2j.FromAffine(&g2)
	ps := make([]G1Affine, 0, n+1)
	qs := make([]G2Affine, 0, n+1)
	var sum ff.Fr
	for i := 0; i < n; i++ {
		a, b := randScalar(rng), randScalar(rng)
		var pj G1Jac
		pj.ScalarMul(&g1j, &a)
		var qj G2Jac
		qj.ScalarMul(&g2j, &b)
		var p G1Affine
		var q G2Affine
		p.FromJacobian(&pj)
		q.FromJacobian(&qj)
		ps, qs = append(ps, p), append(qs, q)
		a.Mul(&a, &b)
		sum.Add(&sum, &a)
	}
	// Π e(a_i·G, b_i·H) · e(-(Σ a_i·b_i)·G, H) == 1
	sum.Neg(&sum)
	var lj G1Jac
	lj.ScalarMul(&g1j, &sum)
	var last G1Affine
	last.FromJacobian(&lj)
	ps, qs = append(ps, last), append(qs, g2)
	ok, err := PairingCheck(ps, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("balanced pairing product rejected")
	}
	ps[2].Neg(&ps[2])
	ok, err = PairingCheck(ps, qs)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("unbalanced pairing product accepted")
	}
}

func TestPairingInputErrors(t *testing.T) {
	g1, g2 := G1Generator(), G2Generator()
	if _, err := PairingCheck([]G1Affine{g1, g1}, []G2Affine{g2}); err == nil {
		t.Fatal("mismatched vector lengths accepted")
	}
	badP := g1
	badP.Y.Add(&badP.Y, &badP.Y)
	badQ := g2
	badQ.X.Add(&badQ.X, &badQ.X)
	if _, err := Pair(&badP, &g2); err == nil {
		t.Fatal("off-curve G1 input accepted")
	}
	if _, err := Pair(&g1, &badQ); err == nil {
		t.Fatal("off-curve G2 input accepted")
	}
	if _, err := MillerLoop(&badP, &g2); err == nil {
		t.Fatal("MillerLoop accepted an off-curve G1 input")
	}
	if _, err := PairingCheck([]G1Affine{g1, badP}, []G2Affine{g2, g2}); err == nil {
		t.Fatal("PairingCheck accepted an off-curve G1 input")
	}
	if _, err := PairingCheck([]G1Affine{g1, g1}, []G2Affine{g2, badQ}); err == nil {
		t.Fatal("PairingCheck accepted an off-curve G2 input")
	}

	// The prepared entry point: G2 is checked once, when it is prepared;
	// G1 and the lengths on every check.
	if _, err := PrepareG2(g2, badQ); err == nil {
		t.Fatal("PrepareG2 accepted an off-curve G2 input")
	}
	prep, err := PrepareG2(g2, g2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PreparedPairingCheck([]G1Affine{g1, badP}, prep); err == nil {
		t.Fatal("PreparedPairingCheck accepted an off-curve G1 input")
	}
	if _, err := PreparedPairingCheck([]G1Affine{g1}, prep); err == nil {
		t.Fatal("PreparedPairingCheck accepted mismatched vector lengths")
	}
	if _, err := PreparedMillerLoop([]G1Affine{g1, g1, g1}, prep); err == nil {
		t.Fatal("PreparedMillerLoop accepted mismatched vector lengths")
	}
	// A G2Prepared that PrepareG2 never filled fails the check.
	var negG1 G1Affine
	negG1.Neg(&g1)
	if ok, err := PreparedPairingCheck([]G1Affine{g1, negG1}, []G2Prepared{prep[0], {}}); err != nil || ok {
		t.Fatalf("zero G2Prepared: ok=%v err=%v, want a rejection", ok, err)
	}
}
