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
}
