package curve

import (
	"math/big"

	"zkspeed/internal/ff"
)

// G2Affine is a point on the twist E'(Fp2): y² = x³ + 4(1+u).
type G2Affine struct {
	X, Y ff.Fp2
	Inf  bool
}

// G2Jac is a point on G2 in Jacobian coordinates. The zero value is the
// point at infinity.
type G2Jac struct {
	X, Y, Z ff.Fp2
}

var (
	g2Gen  G2Affine
	twistB ff.Fp2 // 4(1+u)
)

func init() {
	g2Gen.X.A0.SetHex("024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8")
	g2Gen.X.A1.SetHex("13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e")
	g2Gen.Y.A0.SetHex("0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801")
	g2Gen.Y.A1.SetHex("0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be")
	twistB.A0.SetUint64(4)
	twistB.A1.SetUint64(4)
}

// G2Generator returns the standard generator of G2.
func G2Generator() G2Affine { return g2Gen }

// G2Infinity returns the identity element in affine form.
func G2Infinity() G2Affine { return G2Affine{Inf: true} }

// IsOnCurve reports whether p satisfies the twist equation.
func (p *G2Affine) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	var lhs, rhs ff.Fp2
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &twistB)
	return lhs.Equal(&rhs)
}

// Neg sets p = -q and returns p.
func (p *G2Affine) Neg(q *G2Affine) *G2Affine {
	p.X = q.X
	p.Y.Neg(&q.Y)
	p.Inf = q.Inf
	return p
}

// Equal reports whether p == q.
func (p *G2Affine) Equal(q *G2Affine) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// FromJacobian converts q to affine form, sets p, and returns p.
func (p *G2Affine) FromJacobian(q *G2Jac) *G2Affine {
	if q.Z.IsZero() {
		*p = G2Affine{Inf: true}
		return p
	}
	var zinv, zinv2, zinv3 ff.Fp2
	zinv.Inverse(&q.Z)
	zinv2.Square(&zinv)
	zinv3.Mul(&zinv2, &zinv)
	p.X.Mul(&q.X, &zinv2)
	p.Y.Mul(&q.Y, &zinv3)
	p.Inf = false
	return p
}

// IsInfinity reports whether p is the identity.
func (p *G2Jac) IsInfinity() bool { return p.Z.IsZero() }

// SetInfinity sets p to the identity and returns p.
func (p *G2Jac) SetInfinity() *G2Jac { *p = G2Jac{}; return p }

// FromAffine sets p to q in Jacobian form and returns p.
func (p *G2Jac) FromAffine(q *G2Affine) *G2Jac {
	if q.Inf {
		return p.SetInfinity()
	}
	p.X = q.X
	p.Y = q.Y
	p.Z.SetOne()
	return p
}

// Set copies q into p and returns p.
func (p *G2Jac) Set(q *G2Jac) *G2Jac { *p = *q; return p }

// Neg sets p = -q and returns p.
func (p *G2Jac) Neg(q *G2Jac) *G2Jac {
	p.X = q.X
	p.Z = q.Z
	p.Y.Neg(&q.Y)
	return p
}

// Double sets p = 2q and returns p.
func (p *G2Jac) Double(q *G2Jac) *G2Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	var a, b, c, d, e, f, t ff.Fp2
	a.Square(&q.X)
	b.Square(&q.Y)
	c.Square(&b)
	d.Add(&q.X, &b)
	d.Square(&d)
	d.Sub(&d, &a)
	d.Sub(&d, &c)
	d.Double(&d)
	e.Double(&a)
	e.Add(&e, &a)
	f.Square(&e)
	var x3, y3, z3 ff.Fp2
	x3.Sub(&f, &d)
	x3.Sub(&x3, &d)
	t.Sub(&d, &x3)
	y3.Mul(&e, &t)
	t.Double(&c)
	t.Double(&t)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Mul(&q.Y, &q.Z)
	z3.Double(&z3)
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// Add sets p = q + r and returns p.
func (p *G2Jac) Add(q, r *G2Jac) *G2Jac {
	if q.IsInfinity() {
		return p.Set(r)
	}
	if r.IsInfinity() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2 ff.Fp2
	z1z1.Square(&q.Z)
	z2z2.Square(&r.Z)
	u1.Mul(&q.X, &z2z2)
	u2.Mul(&r.X, &z1z1)
	s1.Mul(&q.Y, &r.Z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&r.Y, &q.Z)
	s2.Mul(&s2, &z1z1)
	if u1.Equal(&u2) {
		if s1.Equal(&s2) {
			return p.Double(q)
		}
		return p.SetInfinity()
	}
	var h, i, j, rr, v, t ff.Fp2
	h.Sub(&u2, &u1)
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	rr.Sub(&s2, &s1)
	rr.Double(&rr)
	v.Mul(&u1, &i)
	var x3, y3, z3 ff.Fp2
	x3.Square(&rr)
	x3.Sub(&x3, &j)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	t.Sub(&v, &x3)
	y3.Mul(&rr, &t)
	t.Mul(&s1, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&q.Z, &r.Z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// ScalarMul sets p = [s]q and returns p (double-and-add over the scalar's
// canonical limbs). Only SRS setup calls it: both PCS verifiers pair
// against fixed G2 elements and do their scalar work in G1.
func (p *G2Jac) ScalarMul(q *G2Jac, s *ff.Fr) *G2Jac {
	e := s.CanonicalLimbs()
	var acc G2Jac
	for i := scalarBitLen(&e) - 1; i >= 0; i-- {
		acc.Double(&acc)
		if e[i/64]>>(uint(i)%64)&1 == 1 {
			acc.Add(&acc, q)
		}
	}
	return p.Set(&acc)
}

// ScalarMulBig sets p = [e]q for a non-negative big integer e.
func (p *G2Jac) ScalarMulBig(q *G2Jac, e *big.Int) *G2Jac {
	var acc G2Jac
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if e.Bit(i) == 1 {
			acc.Add(&acc, q)
		}
	}
	return p.Set(&acc)
}
