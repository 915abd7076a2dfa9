package ff

// Fp6 is the cubic extension Fp2[v]/(v³-ξ) with ξ = 1+u.
// Elements are B0 + B1·v + B2·v².
type Fp6 struct {
	B0, B1, B2 Fp2
}

// SetZero sets z = 0 and returns z.
func (z *Fp6) SetZero() *Fp6 { z.B0.SetZero(); z.B1.SetZero(); z.B2.SetZero(); return z }

// SetOne sets z = 1 and returns z.
func (z *Fp6) SetOne() *Fp6 { z.B0.SetOne(); z.B1.SetZero(); z.B2.SetZero(); return z }

// IsZero reports whether z == 0.
func (z *Fp6) IsZero() bool { return z.B0.IsZero() && z.B1.IsZero() && z.B2.IsZero() }

// Equal reports whether z == x.
func (z *Fp6) Equal(x *Fp6) bool {
	return z.B0.Equal(&x.B0) && z.B1.Equal(&x.B1) && z.B2.Equal(&x.B2)
}

// Add sets z = x + y and returns z.
func (z *Fp6) Add(x, y *Fp6) *Fp6 {
	z.B0.Add(&x.B0, &y.B0)
	z.B1.Add(&x.B1, &y.B1)
	z.B2.Add(&x.B2, &y.B2)
	return z
}

// Sub sets z = x - y and returns z.
func (z *Fp6) Sub(x, y *Fp6) *Fp6 {
	z.B0.Sub(&x.B0, &y.B0)
	z.B1.Sub(&x.B1, &y.B1)
	z.B2.Sub(&x.B2, &y.B2)
	return z
}

// Neg sets z = -x and returns z.
func (z *Fp6) Neg(x *Fp6) *Fp6 {
	z.B0.Neg(&x.B0)
	z.B1.Neg(&x.B1)
	z.B2.Neg(&x.B2)
	return z
}

// Mul sets z = x*y (Toom/Karatsuba over v³=ξ) and returns z.
func (z *Fp6) Mul(x, y *Fp6) *Fp6 {
	var t0, t1, t2, c0, c1, c2, tmp, s Fp2
	t0.Mul(&x.B0, &y.B0)
	t1.Mul(&x.B1, &y.B1)
	t2.Mul(&x.B2, &y.B2)

	// c0 = t0 + ξ((b1+b2)(c1+c2) - t1 - t2)
	c0.Add(&x.B1, &x.B2)
	tmp.Add(&y.B1, &y.B2)
	c0.Mul(&c0, &tmp)
	c0.Sub(&c0, &t1)
	c0.Sub(&c0, &t2)
	c0.MulByNonResidue(&c0)
	c0.Add(&c0, &t0)

	// c1 = (b0+b1)(c0+c1) - t0 - t1 + ξ t2
	c1.Add(&x.B0, &x.B1)
	tmp.Add(&y.B0, &y.B1)
	c1.Mul(&c1, &tmp)
	c1.Sub(&c1, &t0)
	c1.Sub(&c1, &t1)
	s.MulByNonResidue(&t2)
	c1.Add(&c1, &s)

	// c2 = (b0+b2)(c0+c2) - t0 - t2 + t1
	c2.Add(&x.B0, &x.B2)
	tmp.Add(&y.B0, &y.B2)
	c2.Mul(&c2, &tmp)
	c2.Sub(&c2, &t0)
	c2.Sub(&c2, &t2)
	c2.Add(&c2, &t1)

	z.B0, z.B1, z.B2 = c0, c1, c2
	return z
}

// Square sets z = x² (Chung–Hasan SQR2: two multiplications and three
// squarings in Fp2 against Mul's six multiplications) and returns z.
func (z *Fp6) Square(x *Fp6) *Fp6 {
	// (b0+b1v+b2v²)² = (b0² + 2ξb1b2) + (2b0b1 + ξb2²)v + (b1² + 2b0b2)v²
	var s0, s1, s2, s3, s4, c0, c1 Fp2
	s0.Square(&x.B0)
	s1.Mul(&x.B0, &x.B1)
	s1.Double(&s1) // 2b0b1
	s2.Sub(&x.B0, &x.B1)
	s2.Add(&s2, &x.B2)
	s2.Square(&s2) // (b0-b1+b2)²
	s3.Mul(&x.B1, &x.B2)
	s3.Double(&s3) // 2b1b2
	s4.Square(&x.B2)

	c0.MulByNonResidue(&s3)
	c0.Add(&c0, &s0)
	c1.MulByNonResidue(&s4)
	c1.Add(&c1, &s1)
	// b1² + 2b0b2 = s1 + s2 + s3 - s0 - s4
	z.B2.Add(&s1, &s2)
	z.B2.Add(&z.B2, &s3)
	z.B2.Sub(&z.B2, &s0)
	z.B2.Sub(&z.B2, &s4)
	z.B0, z.B1 = c0, c1
	return z
}

// MulBy01 sets z = x·(c0 + c1·v), a multiplicand whose v² coefficient is
// zero (five Fp2 multiplications), and returns z.
func (z *Fp6) MulBy01(x *Fp6, c0, c1 *Fp2) *Fp6 {
	// (b0c0 + ξb2c1) + (b0c1 + b1c0)v + (b1c1 + b2c0)v²
	var a, b, t0, t1, t2, s Fp2
	a.Mul(&x.B0, c0)
	b.Mul(&x.B1, c1)

	t0.Mul(&x.B2, c1)
	t0.MulByNonResidue(&t0)
	t0.Add(&t0, &a)

	t1.Add(&x.B0, &x.B1)
	s.Add(c0, c1)
	t1.Mul(&t1, &s)
	t1.Sub(&t1, &a)
	t1.Sub(&t1, &b)

	t2.Mul(&x.B2, c0)
	t2.Add(&t2, &b)

	z.B0, z.B1, z.B2 = t0, t1, t2
	return z
}

// MulBy1 sets z = x·(c1·v) and returns z.
func (z *Fp6) MulBy1(x *Fp6, c1 *Fp2) *Fp6 {
	var t0, t1, t2 Fp2
	t0.Mul(&x.B2, c1)
	t0.MulByNonResidue(&t0)
	t1.Mul(&x.B0, c1)
	t2.Mul(&x.B1, c1)
	z.B0, z.B1, z.B2 = t0, t1, t2
	return z
}

// MulByFp2 sets z = x·c with c in Fp2, and returns z.
func (z *Fp6) MulByFp2(x *Fp6, c *Fp2) *Fp6 {
	z.B0.Mul(&x.B0, c)
	z.B1.Mul(&x.B1, c)
	z.B2.Mul(&x.B2, c)
	return z
}

// MulByV sets z = x·v (shift with reduction by v³=ξ) and returns z.
func (z *Fp6) MulByV(x *Fp6) *Fp6 {
	var b0 Fp2
	b0.MulByNonResidue(&x.B2)
	z.B2 = x.B1
	z.B1 = x.B0
	z.B0 = b0
	return z
}

// Inverse sets z = x^{-1}; zero maps to zero.
func (z *Fp6) Inverse(x *Fp6) *Fp6 {
	// Standard formula (Guide to Pairing-Based Cryptography):
	// c0 = b0² - ξ b1 b2; c1 = ξ b2² - b0 b1; c2 = b1² - b0 b2
	// t = ξ(b1 c2 + b2 c1) + b0 c0;  z = (c0 + c1 v + c2 v²)/t
	var c0, c1, c2, t, tmp Fp2
	c0.Square(&x.B0)
	tmp.Mul(&x.B1, &x.B2)
	tmp.MulByNonResidue(&tmp)
	c0.Sub(&c0, &tmp)

	c1.Square(&x.B2)
	c1.MulByNonResidue(&c1)
	tmp.Mul(&x.B0, &x.B1)
	c1.Sub(&c1, &tmp)

	c2.Square(&x.B1)
	tmp.Mul(&x.B0, &x.B2)
	c2.Sub(&c2, &tmp)

	t.Mul(&x.B1, &c2)
	tmp.Mul(&x.B2, &c1)
	t.Add(&t, &tmp)
	t.MulByNonResidue(&t)
	tmp.Mul(&x.B0, &c0)
	t.Add(&t, &tmp)
	t.Inverse(&t)

	z.B0.Mul(&c0, &t)
	z.B1.Mul(&c1, &t)
	z.B2.Mul(&c2, &t)
	return z
}
