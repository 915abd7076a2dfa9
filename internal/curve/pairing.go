package curve

import (
	"errors"

	"zkspeed/internal/ff"
)

// This file implements the reduced ate pairing e: G1 × G2 → GT ⊂ Fp12.
//
// The Miller loop is split into a G2 walk and a G1 consumer. The walk
// (PrepareG2) never leaves the twist: each G2 argument is carried as an
// accumulator in homogeneous projective Fp2 coordinates, so doubling and
// addition steps need no inversion, and the line through the accumulator
// is recorded as three Fp2 coefficients — 68 triples per point, one per
// doubling (63) and addition (5) over the bits of |x|. Carrying a line
// to E(Fp12) by (x', y') → (x'·w⁻², y'·w⁻³) and clearing w³ puts it,
// evaluated at P = (xP, yP), at c0 + c1·xP·v − c4·yP·v·w. The consumer
// (PreparedMillerLoop) scales every recorded triple by (xP, −yP) and folds
// it into the running value by the sparse ff.Fp12.MulBy014; all pairs of
// one product share one Fp12 squaring per bit of |x| however many pairs
// there are. Every scaling involved (the projective denominators, w³, a
// sign) lies in a proper subfield of Fp12 and is killed by the final
// exponentiation.
//
// The lines depend on Q alone, so a verifier whose G2 arguments are fixed
// (both PCS backends pair only against SRS elements) prepares them once
// and pays only the consumer per check. MultiMillerLoop, PairingCheck and
// Pair prepare their G2 arguments on the fly and run the same consumer:
// there is one Miller loop.
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

// millerLines is the number of lines one Miller loop folds: a doubling for
// each of the 63 bits of |x| below the top one, and an addition for each
// of the 5 further set bits.
const millerLines = 68

var (
	errPairingLen     = errors.New("curve: mismatched pairing vectors")
	errPairingOnCurve = errors.New("curve: pairing input not on curve")
)

// line holds the coefficients of one Miller-loop line; evaluated at P it
// is c0 + c1·xP·v − c4·yP·v·w.
type line struct {
	c0, c1, c4 ff.Fp2
}

// G2Prepared holds the Miller-loop lines of one G2 point, in the order the
// loop consumes them (~20 KB). The zero value is not a prepared point: its
// lines are zero, so a check that uses it fails.
type G2Prepared struct {
	lines [millerLines]line
	inf   bool
}

// g2Proj is a point of the twist in homogeneous projective coordinates
// (x' = x/z, y' = y/z).
type g2Proj struct {
	x, y, z ff.Fp2
}

// PrepareG2 runs the G2 walk of the Miller loop for each point and
// returns its lines. It rejects points off the twist; a point at infinity
// is prepared as one, and its pairs contribute 1.
func PrepareG2(qs ...G2Affine) ([]G2Prepared, error) {
	out := make([]G2Prepared, len(qs))
	for i := range qs {
		if !qs[i].IsOnCurve() {
			return nil, errPairingOnCurve
		}
		out[i].prepare(&qs[i])
	}
	return out, nil
}

// prepare records the lines of q's Miller loop.
func (p *G2Prepared) prepare(q *G2Affine) {
	if q.Inf {
		p.inf = true
		return
	}
	t := g2Proj{x: q.X, y: q.Y}
	t.z.SetOne()
	j := 0
	for i := 62; i >= 0; i-- { // below the top bit of |x|
		t.double(&p.lines[j])
		j++
		if blsX>>uint(i)&1 == 1 {
			t.add(q, &p.lines[j])
			j++
		}
	}
}

// double sets t = 2t and records the tangent at (the old) t.
func (t *g2Proj) double(ln *line) {
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

	ln.c0.Sub(&e, &b)
	ln.c1.Double(&j)
	ln.c1.Add(&ln.c1, &j)
	ln.c4 = h
}

// add sets t = t + q and records the chord through (the old) t and q.
func (t *g2Proj) add(q *G2Affine, ln *line) {
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
	ln.c0.Sub(&c, &s)
	ln.c1 = o
	ln.c4 = l
}

// millerPair is one (P, Q) of a pairing product inside the consumer: P
// enters only as the two factors that scale a line's coefficients.
type millerPair struct {
	xP, negYP ff.Fp
	q         *G2Prepared
}

// lineInto multiplies f by the j-th line of q evaluated at P.
func (m *millerPair) lineInto(f *ff.Fp12, j int) {
	l := &m.q.lines[j]
	var c1, c4 ff.Fp2
	c1.MulByFp(&l.c1, &m.xP)
	c4.MulByFp(&l.c4, &m.negYP)
	f.MulBy014(f, &l.c0, &c1, &c4)
}

// PreparedMillerLoop computes Π f_{x,Q_i}(P_i) from prepared G2 lines,
// the product of the Miller values of every pair (each up to a factor the
// final exponentiation removes), in one pass over the bits of |x|. It
// rejects G1 points off the curve; pairs with a point at infinity
// contribute 1.
func PreparedMillerLoop(ps []G1Affine, qs []G2Prepared) (ff.Fp12, error) {
	var f ff.Fp12
	f.SetOne()
	if len(ps) != len(qs) {
		return f, errPairingLen
	}
	pairs := make([]millerPair, 0, len(ps))
	for i := range ps {
		if !ps[i].IsOnCurve() {
			return f, errPairingOnCurve
		}
		if ps[i].Inf || qs[i].inf {
			continue
		}
		m := millerPair{xP: ps[i].X, q: &qs[i]}
		m.negYP.Neg(&ps[i].Y)
		pairs = append(pairs, m)
	}
	if len(pairs) == 0 {
		return f, nil
	}
	j := 0
	for i := 62; i >= 0; i-- { // below the top bit of |x|
		f.Square(&f)
		for k := range pairs {
			pairs[k].lineInto(&f, j)
		}
		j++
		if blsX>>uint(i)&1 == 1 {
			for k := range pairs {
				pairs[k].lineInto(&f, j)
			}
			j++
		}
	}
	// x < 0: f_{-|x|} ~ conj(f_{|x|}) up to factors killed by the final exp.
	f.Conjugate(&f)
	return f, nil
}

// MultiMillerLoop is PreparedMillerLoop with the G2 lines prepared on the
// fly. It rejects inputs off their curves.
func MultiMillerLoop(ps []G1Affine, qs []G2Affine) (ff.Fp12, error) {
	prep, err := PrepareG2(qs...)
	if err != nil {
		return ff.Fp12{}, err
	}
	return PreparedMillerLoop(ps, prep)
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

// PreparedPairingCheck is PairingCheck against prepared G2 lines: the
// check a verifier with fixed G2 arguments makes.
func PreparedPairingCheck(ps []G1Affine, qs []G2Prepared) (bool, error) {
	f, err := PreparedMillerLoop(ps, qs)
	if err != nil {
		return false, err
	}
	out := FinalExponentiation(&f)
	return out.IsOne(), nil
}
