package curve

import (
	"errors"
	"math/big"

	"zkspeed/internal/ff"
)

// The pairing as it stood before the twist-side rewrite, retained as the
// oracle pairing.go is tested against. It favors transparency over speed:
// G2 points are mapped through the untwist isomorphism into the full curve
// E(Fp12), a textbook affine Miller loop of length |x| runs there with
// generic line evaluations, and the final exponentiation is one generic
// Exp by the full (p^12-1)/r. All structure is checkable against first
// principles.

var (
	refBlsX      = new(big.Int).SetUint64(0xd201000000010000) // |x|; x is negative
	finalExpPow  *big.Int                                     // (p^12 - 1) / r
	wInv2, wInv3 ff.Fp12                                      // w^{-2}, w^{-3} for the untwist
)

func init() {
	p := ff.FpModulusBig()
	p12 := new(big.Int).Exp(p, big.NewInt(12), nil)
	p12.Sub(p12, big.NewInt(1))
	finalExpPow = new(big.Int).Quo(p12, ff.FrModulusBig())

	var w, winv ff.Fp12
	w.C1.SetOne() // the Fp12 generator w, w² = v, w⁶ = 1+u
	winv.Inverse(&w)
	wInv2.Mul(&winv, &winv)
	wInv3.Mul(&wInv2, &winv)
}

// ePoint is an affine point of E(Fp12): y² = x³ + 4.
type ePoint struct {
	x, y ff.Fp12
	inf  bool
}

// untwist maps a G2 (twist) point onto E(Fp12): (x', y') → (x'·w⁻², y'·w⁻³).
func untwist(q *G2Affine) ePoint {
	if q.Inf {
		return ePoint{inf: true}
	}
	var p ePoint
	p.x.MulByFp2(&wInv2, &q.X)
	p.y.MulByFp2(&wInv3, &q.Y)
	return p
}

// eDouble returns 2a and the tangent-line slope at a.
func eDouble(a *ePoint) (ePoint, ff.Fp12) {
	var lambda, num, den ff.Fp12
	num.Mul(&a.x, &a.x)
	var three ff.Fp12
	three.C0.B0.A0.SetUint64(3)
	num.Mul(&num, &three)
	den.Add(&a.y, &a.y)
	den.Inverse(&den)
	lambda.Mul(&num, &den)
	var r ePoint
	r.x.Mul(&lambda, &lambda)
	r.x.Sub(&r.x, &a.x)
	r.x.Sub(&r.x, &a.x)
	r.y.Sub(&a.x, &r.x)
	r.y.Mul(&r.y, &lambda)
	r.y.Sub(&r.y, &a.y)
	return r, lambda
}

// eAdd returns a+b and the chord-line slope (a ≠ ±b, neither infinite).
func eAdd(a, b *ePoint) (ePoint, ff.Fp12) {
	var lambda, num, den ff.Fp12
	num.Sub(&b.y, &a.y)
	den.Sub(&b.x, &a.x)
	den.Inverse(&den)
	lambda.Mul(&num, &den)
	var r ePoint
	r.x.Mul(&lambda, &lambda)
	r.x.Sub(&r.x, &a.x)
	r.x.Sub(&r.x, &b.x)
	r.y.Sub(&a.x, &r.x)
	r.y.Mul(&r.y, &lambda)
	r.y.Sub(&r.y, &a.y)
	return r, lambda
}

// lineEval evaluates the line through a with slope lambda at the G1 point
// (xp, yp): l = (yp - a.y) - lambda(xp - a.x).
func lineEval(a *ePoint, lambda, xp, yp *ff.Fp12) ff.Fp12 {
	var t, l ff.Fp12
	l.Sub(yp, &a.y)
	t.Sub(xp, &a.x)
	t.Mul(&t, lambda)
	l.Sub(&l, &t)
	return l
}

// refMillerLoop computes the (un-exponentiated) Miller value f_{|x|,Q}(P),
// conjugated to account for the negative BLS parameter. Squarings are
// spelled Mul(x, x) so the oracle shares no special-form arithmetic with
// the code under test.
func refMillerLoop(p *G1Affine, q *G2Affine) (ff.Fp12, error) {
	var f ff.Fp12
	f.SetOne()
	if p.Inf || q.Inf {
		return f, nil
	}
	if !p.IsOnCurve() || !q.IsOnCurve() {
		return f, errors.New("curve: pairing input not on curve")
	}
	var xp, yp ff.Fp12
	xp.C0.B0.A0 = p.X
	yp.C0.B0.A0 = p.Y

	qq := untwist(q)
	t := qq
	for i := refBlsX.BitLen() - 2; i >= 0; i-- {
		f.Mul(&f, &f)
		r, lambda := eDouble(&t)
		l := lineEval(&t, &lambda, &xp, &yp)
		f.Mul(&f, &l)
		t = r
		if refBlsX.Bit(i) == 1 {
			r, lambda := eAdd(&t, &qq)
			l := lineEval(&t, &lambda, &xp, &yp)
			f.Mul(&f, &l)
			t = r
		}
	}
	// x < 0: f_{-|x|} ~ conj(f_{|x|}) up to factors killed by the final exp.
	f.Conjugate(&f)
	return f, nil
}

// refFinalExponentiation raises the Miller value to (p^12-1)/r by plain
// square-and-multiply.
func refFinalExponentiation(f *ff.Fp12) GT {
	var res ff.Fp12
	res.SetOne()
	for i := finalExpPow.BitLen() - 1; i >= 0; i-- {
		res.Mul(&res, &res)
		if finalExpPow.Bit(i) == 1 {
			res.Mul(&res, f)
		}
	}
	return res
}

// refPair is the reduced ate pairing e(P, Q) through the reference path.
func refPair(p *G1Affine, q *G2Affine) (GT, error) {
	f, err := refMillerLoop(p, q)
	if err != nil {
		return GT{}, err
	}
	return refFinalExponentiation(&f), nil
}
