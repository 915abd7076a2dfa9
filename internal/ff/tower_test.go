package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

func randFp2(rng *rand.Rand) Fp2   { return Fp2{randFp(rng), randFp(rng)} }
func randFp6(rng *rand.Rand) Fp6   { return Fp6{randFp2(rng), randFp2(rng), randFp2(rng)} }
func randFp12(rng *rand.Rand) Fp12 { return Fp12{randFp6(rng), randFp6(rng)} }

func TestFp2Arithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		a, b, c := randFp2(rng), randFp2(rng), randFp2(rng)
		// distributivity
		var s, l, r1, r2 Fp2
		s.Add(&b, &c)
		l.Mul(&a, &s)
		r1.Mul(&a, &b)
		r2.Mul(&a, &c)
		r1.Add(&r1, &r2)
		if !l.Equal(&r1) {
			t.Fatal("fp2 distributivity failed")
		}
		// square == mul
		var sq, mm Fp2
		sq.Square(&a)
		mm.Mul(&a, &a)
		if !sq.Equal(&mm) {
			t.Fatal("fp2 square != mul")
		}
		// inverse
		if !a.IsZero() {
			var inv, p Fp2
			inv.Inverse(&a)
			p.Mul(&a, &inv)
			if !p.IsOne() {
				t.Fatal("fp2 inverse failed")
			}
		}
	}
}

func TestFp2USquaredIsMinusOne(t *testing.T) {
	var u, u2, m1 Fp2
	u.A1.SetOne()
	u2.Square(&u)
	m1.A0.SetOne()
	m1.Neg(&m1)
	if !u2.Equal(&m1) {
		t.Fatal("u² != -1")
	}
}

func TestFp2NonResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var xi Fp2
	xi.A0.SetOne()
	xi.A1.SetOne() // 1+u
	for i := 0; i < 50; i++ {
		a := randFp2(rng)
		var viaMul, viaFn Fp2
		viaMul.Mul(&a, &xi)
		viaFn.MulByNonResidue(&a)
		if !viaMul.Equal(&viaFn) {
			t.Fatal("MulByNonResidue disagrees with Mul by 1+u")
		}
	}
}

func TestFp6Arithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100; i++ {
		a, b, c := randFp6(rng), randFp6(rng), randFp6(rng)
		var s, l, r1, r2 Fp6
		s.Add(&b, &c)
		l.Mul(&a, &s)
		r1.Mul(&a, &b)
		r2.Mul(&a, &c)
		r1.Add(&r1, &r2)
		if !l.Equal(&r1) {
			t.Fatal("fp6 distributivity failed")
		}
		if !a.IsZero() {
			var inv, p Fp6
			inv.Inverse(&a)
			p.Mul(&a, &inv)
			var one Fp6
			one.SetOne()
			if !p.Equal(&one) {
				t.Fatal("fp6 inverse failed")
			}
		}
	}
}

func TestFp6VCubedIsXi(t *testing.T) {
	// v³ must equal ξ = 1+u.
	var v Fp6
	v.B1.SetOne()
	var v3 Fp6
	v3.Mul(&v, &v)
	v3.Mul(&v3, &v)
	var want Fp6
	want.B0.A0.SetOne()
	want.B0.A1.SetOne()
	if !v3.Equal(&want) {
		t.Fatal("v³ != 1+u")
	}
	// MulByV consistency
	rng := rand.New(rand.NewSource(24))
	a := randFp6(rng)
	var byV, byMul Fp6
	byV.MulByV(&a)
	byMul.Mul(&a, &v)
	if !byV.Equal(&byMul) {
		t.Fatal("MulByV disagrees with Mul by v")
	}
}

func TestFp12Arithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 50; i++ {
		a, b, c := randFp12(rng), randFp12(rng), randFp12(rng)
		var s, l, r1, r2 Fp12
		s.Add(&b, &c)
		l.Mul(&a, &s)
		r1.Mul(&a, &b)
		r2.Mul(&a, &c)
		r1.Add(&r1, &r2)
		if !l.Equal(&r1) {
			t.Fatal("fp12 distributivity failed")
		}
		if !a.IsZero() {
			var inv, p Fp12
			inv.Inverse(&a)
			p.Mul(&a, &inv)
			if !p.IsOne() {
				t.Fatal("fp12 inverse failed")
			}
		}
	}
}

func TestFp12WSquaredIsV(t *testing.T) {
	var w Fp12
	w.C1.SetOne() // w
	var w2 Fp12
	w2.Square(&w)
	var want Fp12
	want.C0.B1.SetOne() // v
	if !w2.Equal(&want) {
		t.Fatal("w² != v")
	}
	// w⁶ == ξ
	var w6 Fp12
	w6.SetOne()
	for i := 0; i < 6; i++ {
		w6.Mul(&w6, &w)
	}
	var xi Fp12
	xi.C0.B0.A0.SetOne()
	xi.C0.B0.A1.SetOne()
	if !w6.Equal(&xi) {
		t.Fatal("w⁶ != 1+u")
	}
}

func TestFp12Exp(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := randFp12(rng)
	// a^(m+n) == a^m * a^n
	m, n := big.NewInt(12345), big.NewInt(6789)
	var am, an, amn, prod Fp12
	am.Exp(&a, m)
	an.Exp(&a, n)
	amn.Exp(&a, new(big.Int).Add(m, n))
	prod.Mul(&am, &an)
	if !prod.Equal(&amn) {
		t.Fatal("fp12 exp homomorphism failed")
	}
}

func TestFp12Conjugate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a := randFp12(rng)
	// conj(a)*a has zero w-part iff ... at minimum conj(conj(a)) == a
	var c, cc Fp12
	c.Conjugate(&a)
	cc.Conjugate(&c)
	if !cc.Equal(&a) {
		t.Fatal("double conjugate != identity")
	}
}

func TestTowerSquareMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 100; i++ {
		a6 := randFp6(rng)
		if i == 0 {
			a6.SetZero()
		}
		var sq6, mm6 Fp6
		sq6.Square(&a6)
		mm6.Mul(&a6, &a6)
		if !sq6.Equal(&mm6) {
			t.Fatal("fp6 square != mul")
		}
		a6.Square(&a6) // aliased
		if !a6.Equal(&mm6) {
			t.Fatal("fp6 aliased square != mul")
		}

		a12 := randFp12(rng)
		if i == 0 {
			a12.SetOne()
		}
		var sq12, mm12 Fp12
		sq12.Square(&a12)
		mm12.Mul(&a12, &a12)
		if !sq12.Equal(&mm12) {
			t.Fatal("fp12 square != mul")
		}
		a12.Square(&a12)
		if !a12.Equal(&mm12) {
			t.Fatal("fp12 aliased square != mul")
		}
	}
}

func TestFp12Frobenius(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	p := FpModulusBig()
	for i := 0; i < 4; i++ {
		a := randFp12(rng)
		var frob, pow Fp12
		frob.Frobenius(&a)
		pow.Exp(&a, p)
		if !frob.Equal(&pow) {
			t.Fatal("Frobenius != Exp(p)")
		}
		it := a
		for k := 0; k < 12; k++ {
			if k == 6 {
				var conj Fp12
				conj.Conjugate(&a)
				if !it.Equal(&conj) {
					t.Fatal("Frobenius⁶ != Conjugate")
				}
			}
			it.Frobenius(&it)
		}
		if !it.Equal(&a) {
			t.Fatal("Frobenius¹² != identity")
		}
	}
}

func TestFp12CyclotomicSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	// (p⁶-1)(p²+1), the final exponentiation's easy part, maps Fp12* onto
	// the cyclotomic subgroup.
	p := FpModulusBig()
	p2 := new(big.Int).Mul(p, p)
	p6 := new(big.Int).Exp(p, big.NewInt(6), nil)
	easy := new(big.Int).Mul(p6.Sub(p6, bigOne), p2.Add(p2, bigOne))
	for i := 0; i < 6; i++ {
		a := randFp12(rng)
		a.Exp(&a, easy)
		for k := 0; k < 4; k++ {
			var cyc, mm Fp12
			cyc.CyclotomicSquare(&a)
			mm.Mul(&a, &a)
			if !cyc.Equal(&mm) {
				t.Fatal("cyclotomic square != mul on a cyclotomic element")
			}
			a.CyclotomicSquare(&a) // aliased; stays in the subgroup
			if !a.Equal(&mm) {
				t.Fatal("aliased cyclotomic square != mul")
			}
		}
	}
	var one, sq Fp12
	one.SetOne()
	sq.CyclotomicSquare(&one)
	if !sq.IsOne() {
		t.Fatal("cyclotomic square of 1 != 1")
	}
}

func TestFp12MulBy014(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 50; i++ {
		a := randFp12(rng)
		c0, c1, c4 := randFp2(rng), randFp2(rng), randFp2(rng)
		switch i {
		case 0:
			c0.SetZero()
		case 1:
			c1.SetZero()
		case 2:
			c4.SetZero()
		}
		var line, want, got Fp12
		line.C0.B0, line.C0.B1, line.C1.B1 = c0, c1, c4
		want.Mul(&a, &line)
		got.MulBy014(&a, &c0, &c1, &c4)
		if !got.Equal(&want) {
			t.Fatal("MulBy014 != Mul by the embedded line")
		}
		a.MulBy014(&a, &c0, &c1, &c4)
		if !a.Equal(&want) {
			t.Fatal("aliased MulBy014 != Mul by the embedded line")
		}

		b := randFp6(rng)
		var l6, w6, g6 Fp6
		l6.B0, l6.B1 = c0, c1
		w6.Mul(&b, &l6)
		g6.MulBy01(&b, &c0, &c1)
		if !g6.Equal(&w6) {
			t.Fatal("Fp6.MulBy01 != Mul")
		}
		l6 = Fp6{}
		l6.B1 = c4
		w6.Mul(&b, &l6)
		g6.MulBy1(&b, &c4)
		if !g6.Equal(&w6) {
			t.Fatal("Fp6.MulBy1 != Mul")
		}
	}
}
