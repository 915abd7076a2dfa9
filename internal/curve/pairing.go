package curve

import (
	"errors"

	"zkspeed/internal/ff"
)

// This file implements the reduced ate pairing e: G1 × G2 → GT ⊂ Fp12.
//
// The Miller loop never leaves the twist. Each G2 argument is carried as
// an accumulator in homogeneous projective Fp2 coordinates, so doubling
// and addition steps need no inversion, and the line through the
// accumulator is produced as three Fp2 coefficients: carrying it to
// E(Fp12) by (x', y') → (x'·w⁻², y'·w⁻³) and clearing w³ puts a line
// evaluated at P = (xP, yP) at c0 + c1·xP·v + c4·yP·v·w, which is folded
// into the running value by the sparse ff.Fp12.MulBy014. Every scaling involved
// (the projective denominators, w³, a sign) lies in a proper subfield of
// Fp12 and is killed by the final exponentiation. All pairs of one
// product share the loop: one Fp12 squaring per bit of |x| however many
// pairs there are.
//
// The final exponentiation splits (p¹²-1)/r into the easy part
// (p⁶-1)(p²+1) — a conjugation, one inversion, two Frobenius maps — and
// the hard part (p⁴-p²+1)/r, run as five powers of x on Granger–Scott
// cyclotomic squarings.
//
// pairing_ref_test.go keeps the first-principles version (affine Miller
// loop in E(Fp12), one generic exponentiation) as the oracle this one is
// tested against. Only verifiers pair: the HyperPlonk prover never does.

// GT is an element of the pairing target group (subgroup of Fp12*).
type GT = ff.Fp12

// blsX is |x|; the BLS12-381 parameter x = -0xd201000000010000 is negative.
const blsX uint64 = 0xd201000000010000

// g2Proj is a point of the twist in homogeneous projective coordinates
// (x' = x/z, y' = y/z).
type g2Proj struct {
	x, y, z ff.Fp2
}

// millerPair is one (P, Q) of a pairing product inside the loop: P enters
// only as the two factors that scale a line's coefficients.
type millerPair struct {
	xP, negYP ff.Fp
	q         G2Affine
	t         g2Proj
}

// lineInto multiplies f by the line c0 + c1·xP·v - c4·yP·v·w.
func (m *millerPair) lineInto(f *ff.Fp12, c0, c1, c4 *ff.Fp2) {
	c1.MulByFp(c1, &m.xP)
	c4.MulByFp(c4, &m.negYP)
	f.MulBy014(f, c0, c1, c4)
}

// double sets t = 2t and multiplies f by the tangent at (the old) t
// evaluated at P.
func (m *millerPair) double(f *ff.Fp12) {
	t := &m.t
	// Tangent, scaled by -2YZ: (3b'Z² - Y²) + 3X²·xP·v - 2YZ·yP·v·w.
	// 2t, scaled by 4: X₃ = 2XY(B-F), Y₃ = (B+F)² - 12E², Z₃ = 4BH with
	// B = Y², E = 3b'Z², F = 3E, H = 2YZ.
	var a, b, c, e, f3, h, j, s ff.Fp2
	a.Mul(&t.x, &t.y)
	a.Double(&a) // 2XY
	b.Square(&t.y)
	c.Square(&t.z)
	e.Double(&c)
	e.Add(&e, &c)
	e.MulByNonResidue(&e)
	e.Double(&e)
	e.Double(&e) // b' = 4ξ: E = 4ξ·3Z²
	f3.Double(&e)
	f3.Add(&f3, &e)
	h.Add(&t.y, &t.z)
	h.Square(&h)
	h.Sub(&h, &b)
	h.Sub(&h, &c) // 2YZ
	j.Square(&t.x)

	s.Sub(&b, &f3)
	t.x.Mul(&a, &s)
	s.Add(&b, &f3)
	t.y.Square(&s)
	s.Double(&e)
	s.Square(&s) // 4E²
	t.y.Sub(&t.y, &s)
	t.y.Sub(&t.y, &s)
	t.y.Sub(&t.y, &s)
	t.z.Mul(&b, &h)
	t.z.Double(&t.z)
	t.z.Double(&t.z)

	e.Sub(&e, &b)
	s.Double(&j)
	s.Add(&s, &j)
	m.lineInto(f, &e, &s, &h)
}

// add sets t = t + q and multiplies f by the chord through (the old) t
// and q evaluated at P.
func (m *millerPair) add(f *ff.Fp12) {
	t, q := &m.t, &m.q
	// With O = Y - y₂Z and L = X - x₂Z the chord, scaled by -L, is
	// (L·y₂ - O·x₂) + O·xP·v - L·yP·v·w.
	var o, l, c, d, e, g, h, s ff.Fp2
	o.Mul(&q.Y, &t.z)
	o.Sub(&t.y, &o)
	l.Mul(&q.X, &t.z)
	l.Sub(&t.x, &l)
	c.Square(&o)
	d.Square(&l)
	e.Mul(&l, &d)
	c.Mul(&c, &t.z)
	g.Mul(&t.x, &d)
	h.Add(&e, &c)
	h.Sub(&h, &g)
	h.Sub(&h, &g) // L³ + O²Z - 2XL²
	s.Mul(&t.y, &e)

	t.x.Mul(&l, &h)
	t.y.Sub(&g, &h)
	t.y.Mul(&t.y, &o)
	t.y.Sub(&t.y, &s)
	t.z.Mul(&t.z, &e)

	c.Mul(&l, &q.Y)
	s.Mul(&o, &q.X)
	c.Sub(&c, &s)
	m.lineInto(f, &c, &o, &l)
}

// MultiMillerLoop computes Π f_{x,Q_i}(P_i), the product of the Miller
// values of every pair (each up to a factor the final exponentiation
// removes), in one pass over the bits of |x|. Pairs with a point at
// infinity contribute 1.
func MultiMillerLoop(ps []G1Affine, qs []G2Affine) (ff.Fp12, error) {
	var f ff.Fp12
	f.SetOne()
	if len(ps) != len(qs) {
		return f, errors.New("curve: mismatched pairing vectors")
	}
	pairs := make([]millerPair, 0, len(ps))
	for i := range ps {
		if !ps[i].IsOnCurve() || !qs[i].IsOnCurve() {
			return f, errors.New("curve: pairing input not on curve")
		}
		if ps[i].Inf || qs[i].Inf {
			continue
		}
		m := millerPair{xP: ps[i].X, q: qs[i]}
		m.negYP.Neg(&ps[i].Y)
		m.t.x, m.t.y = qs[i].X, qs[i].Y
		m.t.z.SetOne()
		pairs = append(pairs, m)
	}
	if len(pairs) == 0 {
		return f, nil
	}
	for i := 62; i >= 0; i-- { // below the top bit of |x|
		f.Square(&f)
		for k := range pairs {
			pairs[k].double(&f)
		}
		if blsX>>uint(i)&1 == 1 {
			for k := range pairs {
				pairs[k].add(&f)
			}
		}
	}
	// x < 0: f_{-|x|} ~ conj(f_{|x|}) up to factors killed by the final exp.
	f.Conjugate(&f)
	return f, nil
}

// MillerLoop computes the (un-exponentiated) Miller value f_{x,Q}(P), up
// to a factor the final exponentiation removes.
func MillerLoop(p *G1Affine, q *G2Affine) (ff.Fp12, error) {
	return MultiMillerLoop([]G1Affine{*p}, []G2Affine{*q})
}

// expByX sets z = y^x for y in the cyclotomic subgroup, where inversion
// is conjugation (x is negative).
func expByX(z, y *ff.Fp12) {
	base := *y
	acc := base
	for i := 62; i >= 0; i-- {
		acc.CyclotomicSquare(&acc)
		if blsX>>uint(i)&1 == 1 {
			acc.Mul(&acc, &base)
		}
	}
	z.Conjugate(&acc)
}

// FinalExponentiation maps a Miller value to its coset representative in
// GT. The exponent is 3·(p¹²-1)/r, not (p¹²-1)/r: the hard part uses
// 3(p⁴-p²+1)/r = (x-1)²(x+p)(x²+p²-1) + 3, which needs no division by 3
// in the exponent. The result is therefore the cube of the textbook
// reduced pairing. 3 is prime to r, so cubing permutes GT: bilinearity,
// non-degeneracy and the is-one test of PairingCheck are unaffected.
func FinalExponentiation(f *ff.Fp12) GT {
	// Easy part: m = f^((p⁶-1)(p²+1)), which lands in the cyclotomic
	// subgroup.
	var m, t ff.Fp12
	t.Inverse(f)
	m.Conjugate(f)
	t.Mul(&t, &m) // f^(p⁶-1)
	m.Frobenius(&t)
	m.Frobenius(&m)
	m.Mul(&m, &t)

	// Hard part.
	var a, b, c ff.Fp12
	expByX(&a, &m)
	t.Conjugate(&m)
	a.Mul(&a, &t) // m^(x-1)
	expByX(&b, &a)
	t.Conjugate(&a)
	a.Mul(&b, &t) // m^((x-1)²)
	expByX(&b, &a)
	t.Frobenius(&a)
	b.Mul(&b, &t) // a^(x+p)
	expByX(&c, &b)
	expByX(&c, &c)
	t.Frobenius(&b)
	t.Frobenius(&t)
	c.Mul(&c, &t)
	t.Conjugate(&b)
	c.Mul(&c, &t) // b^(x²+p²-1)
	t.CyclotomicSquare(&m)
	t.Mul(&t, &m)
	c.Mul(&c, &t) // ·m³
	return c
}

// Pair computes e(P, Q), the cube of the reduced ate pairing (see
// FinalExponentiation).
func Pair(p *G1Affine, q *G2Affine) (GT, error) {
	f, err := MillerLoop(p, q)
	if err != nil {
		return GT{}, err
	}
	return FinalExponentiation(&f), nil
}

// PairingCheck reports whether Π e(P_i, Q_i) == 1, sharing one Miller
// loop and one final exponentiation across all pairs.
func PairingCheck(ps []G1Affine, qs []G2Affine) (bool, error) {
	f, err := MultiMillerLoop(ps, qs)
	if err != nil {
		return false, err
	}
	out := FinalExponentiation(&f)
	return out.IsOne(), nil
}
