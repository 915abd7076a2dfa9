package curve

import (
	"encoding/hex"
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
// one batch: both conversions, and the formula over math/big's inverse of
// Z, must agree.
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
		zinv.SetBigInt(new(big.Int).ModInverse(in[i].Z.BigInt(), ff.FpModulusBig()))
		zinv2.Square(&zinv)
		zinv3.Mul(&zinv2, &zinv)
		x.Mul(&in[i].X, &zinv2)
		y.Mul(&in[i].Y, &zinv3)
		if !got.X.Equal(&x) || !got.Y.Equal(&y) || !got.IsOnCurve() {
			t.Fatalf("point %d differs from the math/big-inverse conversion", i)
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

// TestG1CompressedEncoding covers the 48-byte form: the generator's
// well-known ZCash encoding, round trips of both y signs and of infinity,
// and the refusal of every non-canonical or non-G1 spelling — x ≥ p, an x
// naming no curve point, a curve point outside G1, a clear compression
// flag, and infinity with a stray bit or the sign flag set.
func TestG1CompressedEncoding(t *testing.T) {
	g := G1Generator()
	enc := g.BytesCompressed()
	const wantGen = "97f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"
	if got := hex.EncodeToString(enc[:]); got != wantGen {
		t.Fatalf("generator encodes as %s, want %s", got, wantGen)
	}
	rng := rand.New(rand.NewSource(52))
	signs := map[bool]int{}
	for i := 0; i < 8; i++ {
		p := randG1(rng)
		var neg G1Affine
		neg.Neg(&p)
		for _, q := range []G1Affine{p, neg} {
			enc := q.BytesCompressed()
			signs[enc[0]&flagSign != 0]++
			var back G1Affine
			if err := back.SetBytesCompressed(enc[:]); err != nil {
				t.Fatalf("valid point rejected: %v", err)
			}
			if !back.Equal(&q) {
				t.Fatal("compressed round trip changed the point")
			}
		}
	}
	if signs[true] != 8 || signs[false] != 8 {
		t.Fatalf("P and -P must carry opposite sign flags: %v", signs)
	}
	inf := G1Infinity()
	infEnc := inf.BytesCompressed()
	var back G1Affine
	if err := back.SetBytesCompressed(infEnc[:]); err != nil || !back.Inf {
		t.Fatalf("infinity round trip: %v, inf=%v", err, back.Inf)
	}
	if infEnc[0] != flagCompressed|flagInfinity || !allZero(infEnc[1:]) {
		t.Fatalf("infinity encodes as %x", infEnc)
	}

	reject := func(name string, b []byte) {
		t.Helper()
		var p G1Affine
		if err := p.SetBytesCompressed(b); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	withX := func(x *big.Int, flags byte) []byte {
		b := make([]byte, G1CompressedLen)
		x.FillBytes(b)
		b[0] |= flags
		return b
	}
	p := ff.FpModulusBig()
	reject("x = p", withX(p, flagCompressed))
	reject("x = p+1", withX(new(big.Int).Add(p, big.NewInt(1)), flagCompressed))
	reject("x = 2^381-1", withX(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 381), big.NewInt(1)), flagCompressed|flagSign))
	// A G1 point whose x+p still fits below the flag bits: x+p names the
	// same x, and that second spelling must be refused.
	var acc G1Jac
	var small G1Affine
	acc.FromAffine(&g)
	for {
		acc.AddMixed(&g)
		small.FromJacobian(&acc)
		if new(big.Int).Add(small.X.BigInt(), p).BitLen() <= 381 {
			break
		}
	}
	smallEnc := small.BytesCompressed()
	if err := back.SetBytesCompressed(smallEnc[:]); err != nil || !back.Equal(&small) {
		t.Fatalf("small-x point round trip: %v", err)
	}
	reject("x+p spelling of a G1 point's x", withX(new(big.Int).Add(small.X.BigInt(), p), smallEnc[0]&flagMask))
	for x := int64(1); ; x++ {
		var fx, rhs, y ff.Fp
		fx.SetUint64(uint64(x))
		rhs.Square(&fx)
		rhs.Mul(&rhs, &fx)
		rhs.Add(&rhs, &curveB)
		if !y.Sqrt(&rhs) {
			reject("x naming no curve point", withX(big.NewInt(x), flagCompressed))
			break
		}
	}
	off := onCurveG1(3)
	offEnc := off.BytesCompressed()
	reject("curve point outside G1", offEnc[:])
	noFlag := enc
	noFlag[0] &^= flagCompressed
	reject("compression flag clear", noFlag[:])
	infSign := infEnc
	infSign[0] |= flagSign
	reject("infinity with the sign flag", infSign[:])
	infLow := infEnc
	infLow[0] |= 0x01
	reject("infinity with a stray bit in byte 0", infLow[:])
	infTail := infEnc
	infTail[47] = 1
	reject("infinity with a stray bit in its tail", infTail[:])
	reject("short encoding", enc[:47])
	reject("uncompressed infinity", make([]byte, G1CompressedLen))
}

func BenchmarkG1Decompress(b *testing.B) {
	q := randG1(rand.New(rand.NewSource(53)))
	enc := q.BytesCompressed()
	var p G1Affine
	for i := 0; i < b.N; i++ {
		if err := p.SetBytesCompressed(enc[:]); err != nil {
			b.Fatal(err)
		}
	}
}
