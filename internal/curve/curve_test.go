package curve

import (
	"math/big"
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
)

func randScalar(rng *rand.Rand) ff.Fr {
	v := new(big.Int).Rand(rng, ff.FrModulusBig())
	var e ff.Fr
	e.SetBigInt(v)
	return e
}

func TestG1GeneratorOnCurve(t *testing.T) {
	g := G1Generator()
	if !g.IsOnCurve() {
		t.Fatal("G1 generator not on curve")
	}
}

func TestG2GeneratorOnCurve(t *testing.T) {
	g := G2Generator()
	if !g.IsOnCurve() {
		t.Fatal("G2 generator not on curve")
	}
}

func TestG1OrderIsR(t *testing.T) {
	var g, rg G1Jac
	ga := G1Generator()
	g.FromAffine(&ga)
	rg.ScalarMulBig(&g, ff.FrModulusBig())
	if !rg.IsInfinity() {
		t.Fatal("[r]G1 != infinity")
	}
}

func TestG2OrderIsR(t *testing.T) {
	var g, rg G2Jac
	ga := G2Generator()
	g.FromAffine(&ga)
	rg.ScalarMulBig(&g, ff.FrModulusBig())
	if !rg.IsInfinity() {
		t.Fatal("[r]G2 != infinity")
	}
}

func TestG1GroupLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var g G1Jac
	ga := G1Generator()
	g.FromAffine(&ga)
	for i := 0; i < 10; i++ {
		a, b := randScalar(rng), randScalar(rng)
		var pa, pb, sum1, sum2 G1Jac
		pa.ScalarMul(&g, &a)
		pb.ScalarMul(&g, &b)
		sum1.Add(&pa, &pb) // [a]G + [b]G
		var ab ff.Fr
		ab.Add(&a, &b)
		sum2.ScalarMul(&g, &ab) // [a+b]G
		if !sum1.Equal(&sum2) {
			t.Fatal("G1 scalar mul not homomorphic")
		}
	}
	// doubling consistency: P+P == 2P via both paths
	var p, d1, d2 G1Jac
	s := randScalar(rng)
	p.ScalarMul(&g, &s)
	d1.Add(&p, &p)
	d2.Double(&p)
	if !d1.Equal(&d2) {
		t.Fatal("add(P,P) != double(P)")
	}
	// P + (-P) == infinity
	var np, z G1Jac
	np.Neg(&p)
	z.Add(&p, &np)
	if !z.IsInfinity() {
		t.Fatal("P + (-P) != infinity")
	}
	// identity
	var inf, r G1Jac
	r.Add(&p, &inf)
	if !r.Equal(&p) {
		t.Fatal("P + 0 != P")
	}
}

func TestG1MixedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var g G1Jac
	ga := G1Generator()
	g.FromAffine(&ga)
	for i := 0; i < 10; i++ {
		a, b := randScalar(rng), randScalar(rng)
		var pa, pb G1Jac
		pa.ScalarMul(&g, &a)
		pb.ScalarMul(&g, &b)
		var pbAff G1Affine
		pbAff.FromJacobian(&pb)
		var viaMixed, viaFull G1Jac
		viaMixed.Set(&pa)
		viaMixed.AddMixed(&pbAff)
		viaFull.Add(&pa, &pb)
		if !viaMixed.Equal(&viaFull) {
			t.Fatal("mixed add disagrees with full add")
		}
	}
	// mixed add edge cases: add to infinity, add same point, add negation
	var inf G1Jac
	inf.AddMixed(&ga)
	var gj G1Jac
	gj.FromAffine(&ga)
	if !inf.Equal(&gj) {
		t.Fatal("inf + G != G")
	}
	var dbl G1Jac
	dbl.FromAffine(&ga)
	dbl.AddMixed(&ga)
	var dbl2 G1Jac
	dbl2.Double(&gj)
	if !dbl.Equal(&dbl2) {
		t.Fatal("mixed self-add != double")
	}
	var negG G1Affine
	negG.Neg(&ga)
	var z G1Jac
	z.FromAffine(&ga)
	z.AddMixed(&negG)
	if !z.IsInfinity() {
		t.Fatal("G + (-G) != infinity (mixed)")
	}
}

func TestG1AffineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var g G1Jac
	ga := G1Generator()
	g.FromAffine(&ga)
	s := randScalar(rng)
	var p G1Jac
	p.ScalarMul(&g, &s)
	var aff G1Affine
	aff.FromJacobian(&p)
	if !aff.IsOnCurve() {
		t.Fatal("projected point off curve")
	}
	var back G1Jac
	back.FromAffine(&aff)
	if !back.Equal(&p) {
		t.Fatal("affine round trip failed")
	}
	// infinity round trip
	var inf G1Jac
	var infAff G1Affine
	infAff.FromJacobian(&inf)
	if !infAff.Inf {
		t.Fatal("infinity should convert to Inf affine")
	}
}

// TestFromJacobianMatchesBatchNormalize converts random Jacobian points
// (Z a random λ), points with Z = 1 and the identity one at a time and in
// one batch: both conversions, and the Fermat-inverse formula, must agree.
func TestFromJacobianMatchesBatchNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var in []G1Jac
	for i := 0; i < 8; i++ {
		a := randG1(rng)
		var one, scaled G1Jac
		one.FromAffine(&a)
		var l, l2, l3 ff.Fp
		l.SetBigInt(new(big.Int).Rand(rng, ff.FpModulusBig()))
		l2.Square(&l)
		l3.Mul(&l2, &l)
		scaled.X.Mul(&one.X, &l2)
		scaled.Y.Mul(&one.Y, &l3)
		scaled.Z = l
		in = append(in, one, scaled)
	}
	in = append(in, G1Jac{})
	batch := make([]G1Affine, len(in))
	BatchNormalizeJac(batch, in)
	for i := range in {
		var got G1Affine
		got.FromJacobian(&in[i])
		if !got.Equal(&batch[i]) || got.Inf != batch[i].Inf {
			t.Fatalf("point %d: FromJacobian %+v, BatchNormalizeJac %+v", i, got, batch[i])
		}
		if got.Inf {
			continue
		}
		var zinv, zinv2, zinv3, x, y ff.Fp
		zinv.Inverse(&in[i].Z)
		zinv2.Square(&zinv)
		zinv3.Mul(&zinv2, &zinv)
		x.Mul(&in[i].X, &zinv2)
		y.Mul(&in[i].Y, &zinv3)
		if !got.X.Equal(&x) || !got.Y.Equal(&y) || !got.IsOnCurve() {
			t.Fatalf("point %d differs from the Fermat-inverse conversion", i)
		}
	}
}

func TestPairingBilinearity(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing test is slow")
	}
	rng := rand.New(rand.NewSource(45))
	g1 := G1Generator()
	g2 := G2Generator()
	a, b := randScalar(rng), randScalar(rng)

	var g1j, ag1 G1Jac
	g1j.FromAffine(&g1)
	ag1.ScalarMul(&g1j, &a)
	var aG1 G1Affine
	aG1.FromJacobian(&ag1)

	var g2j, bg2 G2Jac
	g2j.FromAffine(&g2)
	bg2.ScalarMul(&g2j, &b)
	var bG2 G2Affine
	bG2.FromJacobian(&bg2)

	// e(aP, bQ) == e(P, Q)^{ab}
	lhs, err := Pair(&aG1, &bG2)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Pair(&g1, &g2)
	if err != nil {
		t.Fatal(err)
	}
	var ab ff.Fr
	ab.Mul(&a, &b)
	var rhs ff.Fp12
	rhs.Exp(&base, ab.BigInt())
	if !lhs.Equal(&rhs) {
		t.Fatal("bilinearity failed: e(aP,bQ) != e(P,Q)^ab")
	}
	if base.IsOne() {
		t.Fatal("pairing of generators is degenerate")
	}
}

func TestPairingCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing test is slow")
	}
	rng := rand.New(rand.NewSource(46))
	g1 := G1Generator()
	g2 := G2Generator()
	s := randScalar(rng)

	// e([s]P, Q) * e(-P, [s]Q) == 1
	var g1j, sp G1Jac
	g1j.FromAffine(&g1)
	sp.ScalarMul(&g1j, &s)
	var spAff, negG1 G1Affine
	spAff.FromJacobian(&sp)
	negG1.Neg(&g1)

	var g2j, sq G2Jac
	g2j.FromAffine(&g2)
	sq.ScalarMul(&g2j, &s)
	var sqAff G2Affine
	sqAff.FromJacobian(&sq)

	ok, err := PairingCheck(
		[]G1Affine{spAff, negG1},
		[]G2Affine{g2, sqAff},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("pairing check should pass")
	}

	// Tampered check must fail.
	ok, err = PairingCheck(
		[]G1Affine{spAff, g1},
		[]G2Affine{g2, sqAff},
	)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered pairing check should fail")
	}
}

func TestPairingWithInfinity(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing test is slow")
	}
	g1 := G1Generator()
	inf2 := G2Infinity()
	out, err := Pair(&g1, &inf2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsOne() {
		t.Fatal("e(P, 0) != 1")
	}
}

func BenchmarkG1Double(b *testing.B) {
	var g G1Jac
	ga := G1Generator()
	g.FromAffine(&ga)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Double(&g)
	}
}

func BenchmarkG1AddMixed(b *testing.B) {
	var g G1Jac
	ga := G1Generator()
	g.FromAffine(&ga)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddMixed(&ga)
	}
}

func BenchmarkG1ScalarMul(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	var g G1Jac
	ga := G1Generator()
	g.FromAffine(&ga)
	s := randScalar(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var p G1Jac
		p.ScalarMul(&g, &s)
	}
}

func BenchmarkPairing(b *testing.B) {
	g1 := G1Generator()
	g2 := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pair(&g1, &g2); err != nil {
			b.Fatal(err)
		}
	}
}

// onCurveG1 returns a point of E(Fp) with the given x (stepping x until
// x³+4 is a square): a random such point has order divisible by a factor
// of the cofactor, so it is outside G1.
func onCurveG1(x uint64) G1Affine {
	var p G1Affine
	for ; ; x++ {
		p.X.SetUint64(x)
		var rhs ff.Fp
		rhs.Square(&p.X)
		rhs.Mul(&rhs, &p.X)
		rhs.Add(&rhs, &curveB)
		if p.Y.Sqrt(&rhs) {
			return p
		}
	}
}

func TestG1IsInSubgroup(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	r := ff.FrModulusBig()
	byOrder := func(p *G1Affine) bool {
		var j G1Jac
		j.FromAffine(p)
		j.ScalarMulBig(&j, r)
		return j.IsInfinity()
	}
	check := func(name string, p G1Affine, want bool) {
		t.Helper()
		if !p.IsOnCurve() {
			t.Fatalf("%s: test point off curve", name)
		}
		if got := byOrder(&p); got != want {
			t.Fatalf("%s: [r]P == ∞ is %v, test expects %v", name, got, want)
		}
		if got := p.IsInSubgroup(); got != want {
			t.Fatalf("%s: IsInSubgroup = %v, [r]P == ∞ is %v", name, got, want)
		}
	}
	check("infinity", G1Infinity(), true)
	check("generator", G1Generator(), true)
	for i := 0; i < 8; i++ {
		check("random multiple of G", randG1(rng), true)
	}
	for i := 0; i < 8; i++ {
		off := onCurveG1(rng.Uint64())
		check("random curve point", off, false)

		// Its cofactor-torsion part [r]P, and that part shifted by a G1
		// point, are on the curve and outside G1 too.
		var tors, shifted G1Jac
		tors.FromAffine(&off)
		tors.ScalarMulBig(&tors, r)
		var torsAff, shiftedAff G1Affine
		torsAff.FromJacobian(&tors)
		check("cofactor torsion", torsAff, false)
		in := randG1(rng)
		shifted.Set(&tors)
		shifted.AddMixed(&in)
		shiftedAff.FromJacobian(&shifted)
		check("G1 point plus torsion", shiftedAff, false)
	}
	bad := G1Generator()
	bad.Y.Add(&bad.Y, &bad.Y)
	if bad.IsInSubgroup() {
		t.Fatal("off-curve point reported in subgroup")
	}
}

func TestScalarMulMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	var g1 G1Jac
	g1a := G1Generator()
	g1.FromAffine(&g1a)
	var g2 G2Jac
	g2a := G2Generator()
	g2.FromAffine(&g2a)
	var zero, one, top ff.Fr
	one.SetOne()
	top.Neg(&one) // r-1
	scalars := []ff.Fr{zero, one, top, ff.NewFr(1 << 63), randScalar(rng), randScalar(rng)}
	var hi ff.Fr
	hi.SetBigInt(new(big.Int).Lsh(big.NewInt(1), 192))
	scalars = append(scalars, hi)
	for i := range scalars {
		e := scalars[i].BigInt()
		var a, b G1Jac
		a.ScalarMul(&g1, &scalars[i])
		b.ScalarMulBig(&g1, e)
		if !a.Equal(&b) {
			t.Fatalf("G1 ScalarMul != ScalarMulBig for %v", e)
		}
		var c, d G2Jac
		c.ScalarMul(&g2, &scalars[i])
		d.ScalarMulBig(&g2, e)
		var ca, da G2Affine
		ca.FromJacobian(&c)
		da.FromJacobian(&d)
		if !ca.Equal(&da) {
			t.Fatalf("G2 ScalarMul != ScalarMulBig for %v", e)
		}
	}
}

func BenchmarkG1IsInSubgroup(b *testing.B) {
	p := randG1(rand.New(rand.NewSource(51)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.IsInSubgroup() {
			b.Fatal("subgroup point rejected")
		}
	}
}
