package ff

import "math/big"

// Fp12 is the quadratic extension Fp6[w]/(w²-v). Elements are C0 + C1·w.
// Since v³ = ξ, w is a sixth root of ξ = 1+u; Fp12 is the full embedding
// field of BLS12-381 and hosts the pairing target group GT.
type Fp12 struct {
	C0, C1 Fp6
}

// SetZero sets z = 0 and returns z.
func (z *Fp12) SetZero() *Fp12 { z.C0.SetZero(); z.C1.SetZero(); return z }

// SetOne sets z = 1 and returns z.
func (z *Fp12) SetOne() *Fp12 { z.C0.SetOne(); z.C1.SetZero(); return z }

// Set copies x into z and returns z.
func (z *Fp12) Set(x *Fp12) *Fp12 { *z = *x; return z }

// IsZero reports whether z == 0.
func (z *Fp12) IsZero() bool { return z.C0.IsZero() && z.C1.IsZero() }

// IsOne reports whether z == 1.
func (z *Fp12) IsOne() bool {
	var one Fp6
	one.SetOne()
	return z.C0.Equal(&one) && z.C1.IsZero()
}

// Equal reports whether z == x.
func (z *Fp12) Equal(x *Fp12) bool { return z.C0.Equal(&x.C0) && z.C1.Equal(&x.C1) }

// Add sets z = x + y and returns z.
func (z *Fp12) Add(x, y *Fp12) *Fp12 {
	z.C0.Add(&x.C0, &y.C0)
	z.C1.Add(&x.C1, &y.C1)
	return z
}

// Sub sets z = x - y and returns z.
func (z *Fp12) Sub(x, y *Fp12) *Fp12 {
	z.C0.Sub(&x.C0, &y.C0)
	z.C1.Sub(&x.C1, &y.C1)
	return z
}

// Neg sets z = -x and returns z.
func (z *Fp12) Neg(x *Fp12) *Fp12 {
	z.C0.Neg(&x.C0)
	z.C1.Neg(&x.C1)
	return z
}

// Mul sets z = x*y (Karatsuba over w²=v) and returns z.
func (z *Fp12) Mul(x, y *Fp12) *Fp12 {
	var v0, v1, s0, s1, t Fp6
	v0.Mul(&x.C0, &y.C0)
	v1.Mul(&x.C1, &y.C1)
	s0.Add(&x.C0, &x.C1)
	s1.Add(&y.C0, &y.C1)
	t.Mul(&s0, &s1)
	t.Sub(&t, &v0)
	t.Sub(&t, &v1) // cross terms
	var v1v Fp6
	v1v.MulByV(&v1)
	z.C0.Add(&v0, &v1v)
	z.C1 = t
	return z
}

// Square sets z = x² by complex squaring (two Fp6 multiplications against
// Mul's three) and returns z.
func (z *Fp12) Square(x *Fp12) *Fp12 {
	// (a+bw)² = (a+b)(a+vb) - ab - v·ab + 2ab·w
	var ab, s, t Fp6
	ab.Mul(&x.C0, &x.C1)
	s.Add(&x.C0, &x.C1)
	t.MulByV(&x.C1)
	t.Add(&t, &x.C0)
	s.Mul(&s, &t)
	s.Sub(&s, &ab)
	t.MulByV(&ab)
	z.C0.Sub(&s, &t)
	z.C1.Add(&ab, &ab)
	return z
}

// CyclotomicSquare sets z = x² for x in the cyclotomic subgroup
// (x^(p⁶+1) has been cleared, i.e. x^(p⁴-p²+1) = 1 — every output of the
// final exponentiation's easy part) and returns z. Granger–Scott: Fp12 is
// read as a cubic extension of Fp4 = Fp2[s]/(s²-ξ), s = w³, where such an
// x squares with three Fp4 squarings — nine Fp2 squarings in all. On any
// other input the result is not x².
func (z *Fp12) CyclotomicSquare(x *Fp12) *Fp12 {
	// x = g0 + g1·w + g2·w² with g0 = (C0.B0, C1.B1), g1 = (C1.B0, C0.B2),
	// g2 = (C0.B1, C1.B2) in Fp4;
	// x² = (3g0² - 2ḡ0) + (3s·g2² + 2ḡ1)·w + (3g1² - 2ḡ2)·w².
	var a0, a1, b0, b1, c0, c1 Fp2
	fp4Square(&a0, &a1, &x.C0.B0, &x.C1.B1) // g0²
	fp4Square(&b0, &b1, &x.C1.B0, &x.C0.B2) // g1²
	fp4Square(&c0, &c1, &x.C0.B1, &x.C1.B2) // g2²
	c1.MulByNonResidue(&c1)                 // s·g2² = (ξ·c1, c0)

	tripleMinusDouble(&z.C0.B0, &a0, &x.C0.B0)
	triplePlusDouble(&z.C1.B1, &a1, &x.C1.B1)
	triplePlusDouble(&z.C1.B0, &c1, &x.C1.B0)
	tripleMinusDouble(&z.C0.B2, &c0, &x.C0.B2)
	tripleMinusDouble(&z.C0.B1, &b0, &x.C0.B1)
	triplePlusDouble(&z.C1.B2, &b1, &x.C1.B2)
	return z
}

// fp4Square sets (r0, r1) = (a0 + a1·s)² in Fp4 = Fp2[s]/(s²-ξ).
func fp4Square(r0, r1, a0, a1 *Fp2) {
	var t0, t1 Fp2
	t0.Square(a0)
	t1.Square(a1)
	r1.Add(a0, a1)
	r1.Square(r1)
	r1.Sub(r1, &t0)
	r1.Sub(r1, &t1) // 2a0a1
	r0.MulByNonResidue(&t1)
	r0.Add(r0, &t0) // a0² + ξa1²
}

// tripleMinusDouble sets z = 3t - 2x; z may alias x.
func tripleMinusDouble(z, t, x *Fp2) {
	var d Fp2
	d.Sub(t, x)
	d.Double(&d)
	z.Add(&d, t)
}

// triplePlusDouble sets z = 3t + 2x; z may alias x.
func triplePlusDouble(z, t, x *Fp2) {
	var d Fp2
	d.Add(t, x)
	d.Double(&d)
	z.Add(&d, t)
}

// frobCoeff[i] = ξ^(i(p-1)/6) = (wⁱ)^(p-1): the factor the p-power map
// puts on the wⁱ coefficient of an Fp12 element. Derived at start-up
// (from fp.go's init, once the Fp constants exist) rather than
// transcribed; tower_test.go checks Frobenius against Exp(p).
var frobCoeff [6]Fp2

var bigOne = big.NewInt(1)

func initFrobCoeff() {
	e := new(big.Int).Sub(fpModulus, bigOne)
	e.Div(e, big.NewInt(6))
	var xi, g Fp2
	xi.A0.SetOne()
	xi.A1.SetOne()
	g.SetOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		g.Square(&g)
		if e.Bit(i) == 1 {
			g.Mul(&g, &xi)
		}
	}
	frobCoeff[0].SetOne()
	for i := 1; i < 6; i++ {
		frobCoeff[i].Mul(&frobCoeff[i-1], &g)
	}
}

// Frobenius sets z = x^p and returns z: every Fp2 coefficient is
// conjugated and the one on wⁱ is scaled by frobCoeff[i].
func (z *Fp12) Frobenius(x *Fp12) *Fp12 {
	// C0 = a0 + a2·w² + a4·w⁴, C1·w = a1·w + a3·w³ + a5·w⁵.
	z.C0.B0.Conjugate(&x.C0.B0)
	z.C0.B1.Conjugate(&x.C0.B1)
	z.C0.B2.Conjugate(&x.C0.B2)
	z.C1.B0.Conjugate(&x.C1.B0)
	z.C1.B1.Conjugate(&x.C1.B1)
	z.C1.B2.Conjugate(&x.C1.B2)
	z.C0.B1.Mul(&z.C0.B1, &frobCoeff[2])
	z.C0.B2.Mul(&z.C0.B2, &frobCoeff[4])
	z.C1.B0.Mul(&z.C1.B0, &frobCoeff[1])
	z.C1.B1.Mul(&z.C1.B1, &frobCoeff[3])
	z.C1.B2.Mul(&z.C1.B2, &frobCoeff[5])
	return z
}

// MulBy014 sets z = x·(c0 + c1·v + c4·v·w) and returns z — the shape of
// a pairing line value, whose other three Fp2 coefficients are zero
// (13 Fp2 multiplications against Mul's 18).
func (z *Fp12) MulBy014(x *Fp12, c0, c1, c4 *Fp2) *Fp12 {
	var a, b, s Fp6
	var d Fp2
	a.MulBy01(&x.C0, c0, c1)
	b.MulBy1(&x.C1, c4)
	d.Add(c1, c4)
	s.Add(&x.C0, &x.C1)
	s.MulBy01(&s, c0, &d)
	s.Sub(&s, &a)
	z.C1.Sub(&s, &b)
	b.MulByV(&b)
	z.C0.Add(&a, &b)
	return z
}

// Conjugate sets z = c0 - c1·w (the p^6 Frobenius) and returns z.
func (z *Fp12) Conjugate(x *Fp12) *Fp12 {
	z.C0 = x.C0
	z.C1.Neg(&x.C1)
	return z
}

// Inverse sets z = x^{-1}; zero maps to zero.
func (z *Fp12) Inverse(x *Fp12) *Fp12 {
	// 1/(a+bw) = (a-bw)/(a² - b²v)
	var t0, t1 Fp6
	t0.Square(&x.C0)
	t1.Square(&x.C1)
	t1.MulByV(&t1)
	t0.Sub(&t0, &t1)
	t0.Inverse(&t0)
	z.C0.Mul(&x.C0, &t0)
	t0.Neg(&t0)
	z.C1.Mul(&x.C1, &t0)
	return z
}

// Exp sets z = x^e for a non-negative big integer e, and returns z.
func (z *Fp12) Exp(x *Fp12, e *big.Int) *Fp12 {
	if e.Sign() < 0 {
		panic("ff: negative exponent")
	}
	var res Fp12
	res.SetOne()
	base := *x
	for i := 0; i < e.BitLen(); i++ {
		if e.Bit(i) == 1 {
			res.Mul(&res, &base)
		}
		base.Square(&base)
	}
	*z = res
	return z
}

// MulByFp2 sets z = x·c with c ∈ Fp2 embedded in Fp12, and returns z.
func (z *Fp12) MulByFp2(x *Fp12, c *Fp2) *Fp12 {
	z.C0.MulByFp2(&x.C0, c)
	z.C1.MulByFp2(&x.C1, c)
	return z
}
