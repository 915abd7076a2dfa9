// Package curve implements the BLS12-381 elliptic curve groups G1 (over Fp,
// y² = x³ + 4), G2 (over Fp2, y² = x³ + 4(1+u)), and the ate pairing into
// Fp12. HyperPlonk commits to MLE tables with G1 multi-scalar
// multiplications; G2 and the pairing appear only on the verifier side of
// the PST polynomial commitment.
package curve

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"sync"

	"zkspeed/internal/ff"
)

// G1Affine is a point on G1 in affine coordinates.
type G1Affine struct {
	X, Y ff.Fp
	Inf  bool
}

// G1Jac is a point on G1 in Jacobian coordinates (x = X/Z², y = Y/Z³).
// Z == 0 encodes the point at infinity. The zero value is infinity.
type G1Jac struct {
	X, Y, Z ff.Fp
}

var (
	g1Gen   G1Affine
	curveB  ff.Fp // 4
	frOrder *big.Int
)

func init() {
	g1Gen.X.SetHex("17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb")
	g1Gen.Y.SetHex("08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1")
	curveB.SetUint64(4)
	frOrder = ff.FrModulusBig()
}

// G1Generator returns the standard generator of G1.
func G1Generator() G1Affine { return g1Gen }

// G1Infinity returns the identity element in affine form.
func G1Infinity() G1Affine { return G1Affine{Inf: true} }

// IsOnCurve reports whether p satisfies y² = x³ + 4 (infinity counts).
func (p *G1Affine) IsOnCurve() bool {
	if p.Inf {
		return true
	}
	var lhs, rhs ff.Fp
	lhs.Square(&p.Y)
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &curveB)
	return lhs.Equal(&rhs)
}

// Neg sets p = -q and returns p.
func (p *G1Affine) Neg(q *G1Affine) *G1Affine {
	p.X = q.X
	p.Y.Neg(&q.Y)
	p.Inf = q.Inf
	return p
}

var (
	g1Beta     ff.Fp // cube root of unity in Fp with φ(P) = [λ]P
	g1BetaOnce sync.Once
)

// g1BetaInit derives β. The two primitive cube roots of unity in Fp are
// (−1 ± √−3)/2; exactly one of them makes (βx, y) act as multiplication
// by λ = x²−1 (the other acts as λ² = −λ−1). Deriving both and testing
// against [λ]G avoids a hand-transcribed 48-byte constant.
func g1BetaInit() {
	var m3, s ff.Fp
	m3.SetUint64(3)
	m3.Neg(&m3)
	if !s.Sqrt(&m3) {
		panic("curve: -3 is not a square in Fp")
	}
	var one, two, halfInv, beta ff.Fp
	one.SetOne()
	two.SetUint64(2)
	halfInv.Inverse(&two)
	beta.Sub(&s, &one)
	beta.Mul(&beta, &halfInv) // (−1+√−3)/2
	var lG, phiG G1Jac
	var gJac G1Jac
	gJac.FromAffine(&g1Gen)
	lG.ScalarMulBig(&gJac, ff.GLVLambda())
	cand := g1Gen
	cand.X.Mul(&cand.X, &beta)
	phiG.FromAffine(&cand)
	if !phiG.Equal(&lG) {
		beta.Square(&beta) // the other root, β² = (−1−√−3)/2
	}
	g1Beta = beta
}

// Phi sets p = φ(q) = (β·x, y), the GLV endomorphism satisfying
// φ(P) = [λ]P for λ = ff.GLVLambda(). Infinity maps to infinity.
func (p *G1Affine) Phi(q *G1Affine) *G1Affine {
	g1BetaOnce.Do(g1BetaInit)
	p.X.Mul(&q.X, &g1Beta)
	p.Y = q.Y
	p.Inf = q.Inf
	return p
}

// IsInSubgroup reports whether p lies in G1, the subgroup of prime order r
// of E(Fp) (infinity counts). E(Fp) has cofactor (x-1)²/3, so IsOnCurve
// alone does not give that, and only for points of order r may a scalar be
// moved across a pairing or reduced mod r.
//
// The test is φ(P) == [λ]P. As an endomorphism φ - λ has degree
// λ² + λ + 1 = r, so its kernel has exactly r points and, containing G1,
// is G1. With λ = x² - 1 the right side costs two 64-bit ladders by |x|
// (Hamming weight 6) in place of a 255-bit multiplication by r.
func (p *G1Affine) IsInSubgroup() bool {
	if p.Inf {
		return true
	}
	if !p.IsOnCurve() {
		return false
	}
	var t G1Jac
	t.FromAffine(p)
	t.mulByAbsX(&t)
	t.mulByAbsX(&t) // [x²]P
	var neg, phi G1Affine
	neg.Neg(p)
	t.AddMixed(&neg) // [x² - 1]P
	if t.IsInfinity() {
		return false
	}
	phi.Phi(p)
	var zz, zzz ff.Fp
	zz.Square(&t.Z)
	zzz.Mul(&zz, &t.Z)
	zz.Mul(&zz, &phi.X)
	zzz.Mul(&zzz, &phi.Y)
	return zz.Equal(&t.X) && zzz.Equal(&t.Y)
}

// mulByAbsX sets p = [|x|]q for the BLS parameter x and returns p.
func (p *G1Jac) mulByAbsX(q *G1Jac) *G1Jac {
	base := *q
	acc := base
	for i := 62; i >= 0; i-- {
		acc.Double(&acc)
		if blsX>>uint(i)&1 == 1 {
			acc.Add(&acc, &base)
		}
	}
	return p.Set(&acc)
}

// Equal reports whether p == q.
func (p *G1Affine) Equal(q *G1Affine) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Equal(&q.X) && p.Y.Equal(&q.Y)
}

// Bytes returns the uncompressed 96-byte X||Y encoding (all zero for
// infinity), used for transcript absorption.
func (p *G1Affine) Bytes() [96]byte {
	var out [96]byte
	if p.Inf {
		return out
	}
	x := p.X.Bytes()
	y := p.Y.Bytes()
	copy(out[:48], x[:])
	copy(out[48:], y[:])
	return out
}

// G1CompressedLen is the size of the compressed G1 encoding.
const G1CompressedLen = ff.FpBytes

// Flag bits of the compressed encoding's first byte (the ZCash BLS12-381
// form): the encoding is compressed, the point is infinity, and y is the
// lexicographically larger of ±y.
const (
	flagCompressed = 0x80
	flagInfinity   = 0x40
	flagSign       = 0x20
	flagMask       = flagCompressed | flagInfinity | flagSign
)

// BytesCompressed returns the 48-byte compressed encoding: x big-endian
// with the three flag bits in the top of its first byte (x < 2^381 leaves
// them free); infinity is the infinity and compression flags alone.
func (p *G1Affine) BytesCompressed() [G1CompressedLen]byte {
	var out [G1CompressedLen]byte
	if p.Inf {
		out[0] = flagCompressed | flagInfinity
		return out
	}
	out = p.X.Bytes()
	out[0] |= flagCompressed
	if p.Y.LexicographicallyLargest() {
		out[0] |= flagSign
	}
	return out
}

// SetBytesCompressed decodes the encoding BytesCompressed produces and
// accepts exactly the points of G1, each in its one canonical spelling:
// the compression flag must be set; infinity carries no other bit; x must
// be below p and name a curve point, whose y the sign flag picks; and
// the point must pass IsInSubgroup. On error p is unspecified.
func (p *G1Affine) SetBytesCompressed(buf []byte) error {
	if len(buf) != G1CompressedLen {
		return fmt.Errorf("curve: compressed G1 point has %d bytes, want %d", len(buf), G1CompressedLen)
	}
	flags := buf[0] & flagMask
	if flags&flagCompressed == 0 {
		return errors.New("curve: G1 point encoding lacks the compression flag")
	}
	if flags&flagInfinity != 0 {
		if flags&flagSign != 0 || buf[0]&^flagMask != 0 || !allZero(buf[1:]) {
			return errors.New("curve: non-canonical encoding of the G1 point at infinity")
		}
		*p = G1Infinity()
		return nil
	}
	var xb [G1CompressedLen]byte
	copy(xb[:], buf)
	xb[0] &^= flagMask
	p.Inf = false
	if !p.X.SetCanonicalBytes(xb[:]) {
		return errors.New("curve: non-canonical G1 x coordinate")
	}
	var rhs ff.Fp
	rhs.Square(&p.X)
	rhs.Mul(&rhs, &p.X)
	rhs.Add(&rhs, &curveB)
	if !p.Y.Sqrt(&rhs) {
		return errors.New("curve: G1 x coordinate names no curve point")
	}
	if p.Y.LexicographicallyLargest() != (flags&flagSign != 0) {
		p.Y.Neg(&p.Y)
	}
	// On the curve is not enough: G1 has a cofactor, and a verifier moves
	// scalars across pairings, which is sound only for points of order r.
	if !p.IsInSubgroup() {
		return errors.New("curve: G1 point outside the order-r subgroup")
	}
	return nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// FromJacobian converts q to affine coordinates, sets p, and returns p.
func (p *G1Affine) FromJacobian(q *G1Jac) *G1Affine {
	if q.Z.IsZero() {
		*p = G1Affine{Inf: true}
		return p
	}
	var zinv, zinv2, zinv3 ff.Fp
	zinv.Inverse(&q.Z)
	zinv2.Square(&zinv)
	zinv3.Mul(&zinv2, &zinv)
	p.X.Mul(&q.X, &zinv2)
	p.Y.Mul(&q.Y, &zinv3)
	p.Inf = false
	return p
}

// IsInfinity reports whether p is the identity.
func (p *G1Jac) IsInfinity() bool { return p.Z.IsZero() }

// SetInfinity sets p to the identity and returns p.
func (p *G1Jac) SetInfinity() *G1Jac { *p = G1Jac{}; return p }

// FromAffine sets p to q in Jacobian form and returns p.
func (p *G1Jac) FromAffine(q *G1Affine) *G1Jac {
	if q.Inf {
		return p.SetInfinity()
	}
	p.X = q.X
	p.Y = q.Y
	p.Z.SetOne()
	return p
}

// Set copies q into p and returns p.
func (p *G1Jac) Set(q *G1Jac) *G1Jac { *p = *q; return p }

// Neg sets p = -q and returns p.
func (p *G1Jac) Neg(q *G1Jac) *G1Jac {
	p.X = q.X
	p.Z = q.Z
	p.Y.Neg(&q.Y)
	return p
}

// Double sets p = 2q (dbl-2009-l, a = 0) and returns p.
func (p *G1Jac) Double(q *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p.SetInfinity()
	}
	var a, b, c, d, e, f, t ff.Fp
	a.Square(&q.X)  // A = X²
	b.Square(&q.Y)  // B = Y²
	c.Square(&b)    // C = B²
	d.Add(&q.X, &b) // (X+B)
	d.Square(&d)    //
	d.Sub(&d, &a)   //
	d.Sub(&d, &c)   //
	d.Double(&d)    // D = 2((X+B)² - A - C)
	e.Double(&a)    //
	e.Add(&e, &a)   // E = 3A
	f.Square(&e)    // F = E²
	var x3, y3, z3 ff.Fp
	x3.Sub(&f, &d)     //
	x3.Sub(&x3, &d)    // X3 = F - 2D
	t.Sub(&d, &x3)     //
	y3.Mul(&e, &t)     //
	t.Double(&c)       //
	t.Double(&t)       //
	t.Double(&t)       // 8C
	y3.Sub(&y3, &t)    // Y3 = E(D-X3) - 8C
	z3.Mul(&q.Y, &q.Z) //
	z3.Double(&z3)     // Z3 = 2YZ
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// Add sets p = q + r (add-2007-bl) and returns p.
func (p *G1Jac) Add(q, r *G1Jac) *G1Jac {
	if q.IsInfinity() {
		return p.Set(r)
	}
	if r.IsInfinity() {
		return p.Set(q)
	}
	var z1z1, z2z2, u1, u2, s1, s2 ff.Fp
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
	var h, i, j, rr, v, t ff.Fp
	h.Sub(&u2, &u1)
	i.Double(&h)
	i.Square(&i)
	j.Mul(&h, &i)
	rr.Sub(&s2, &s1)
	rr.Double(&rr)
	v.Mul(&u1, &i)
	var x3, y3, z3 ff.Fp
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

// AddMixed sets p = p + a where a is affine (madd-2007-bl) and returns p.
func (p *G1Jac) AddMixed(a *G1Affine) *G1Jac {
	if a.Inf {
		return p
	}
	if p.IsInfinity() {
		return p.FromAffine(a)
	}
	var z1z1, u2, s2 ff.Fp
	z1z1.Square(&p.Z)
	u2.Mul(&a.X, &z1z1)
	s2.Mul(&a.Y, &p.Z)
	s2.Mul(&s2, &z1z1)
	if u2.Equal(&p.X) {
		if s2.Equal(&p.Y) {
			return p.Double(p)
		}
		return p.SetInfinity()
	}
	var h, hh, i, j, rr, v, t ff.Fp
	h.Sub(&u2, &p.X)
	hh.Square(&h)
	i.Double(&hh)
	i.Double(&i)
	j.Mul(&h, &i)
	rr.Sub(&s2, &p.Y)
	rr.Double(&rr)
	v.Mul(&p.X, &i)
	var x3, y3, z3 ff.Fp
	x3.Square(&rr)
	x3.Sub(&x3, &j)
	x3.Sub(&x3, &v)
	x3.Sub(&x3, &v)
	t.Sub(&v, &x3)
	y3.Mul(&rr, &t)
	t.Mul(&p.Y, &j)
	t.Double(&t)
	y3.Sub(&y3, &t)
	z3.Add(&p.Z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)
	p.X, p.Y, p.Z = x3, y3, z3
	return p
}

// ScalarMul sets p = [s]q and returns p (double-and-add, MSB first, over
// the scalar's canonical limbs).
func (p *G1Jac) ScalarMul(q *G1Jac, s *ff.Fr) *G1Jac {
	e := s.CanonicalLimbs()
	var acc G1Jac
	for i := scalarBitLen(&e) - 1; i >= 0; i-- {
		acc.Double(&acc)
		if e[i/64]>>(uint(i)%64)&1 == 1 {
			acc.Add(&acc, q)
		}
	}
	return p.Set(&acc)
}

// scalarBitLen returns the bit length of a little-endian 256-bit value.
func scalarBitLen(e *[4]uint64) int {
	for i := 3; i >= 0; i-- {
		if e[i] != 0 {
			return i*64 + bits.Len64(e[i])
		}
	}
	return 0
}

// ScalarMulBig sets p = [e]q for a non-negative big integer e.
func (p *G1Jac) ScalarMulBig(q *G1Jac, e *big.Int) *G1Jac {
	var acc G1Jac
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc.Double(&acc)
		if e.Bit(i) == 1 {
			acc.Add(&acc, q)
		}
	}
	return p.Set(&acc)
}

// Equal reports whether p == q as curve points (cross-multiplied).
func (p *G1Jac) Equal(q *G1Jac) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	var pa, qa G1Affine
	pa.FromJacobian(p)
	qa.FromJacobian(q)
	return pa.Equal(&qa)
}
