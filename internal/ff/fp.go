package ff

import (
	"encoding/binary"
	"math/big"
	"math/bits"
)

// FpModulus is the BLS12-381 base field modulus p (381 bits).
const FpModulus = "1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab"

// FpBytes is the canonical serialized size of an Fp element.
const FpBytes = 48

// Fp is an element of the BLS12-381 base field, stored in Montgomery form as
// six little-endian 64-bit limbs. The zero value is the field's zero.
type Fp [6]uint64

var (
	fpQ       Fp
	fpQInvNeg uint64
	fpRSquare Fp
	fpOne     Fp
	fpSqrtExp Fp // (p+1)/4, the square-root exponent (not Montgomery)
	fpHalf    Fp // (p-1)/2, the largest "small" value (not Montgomery)
	fpModulus *big.Int
)

func init() {
	q, ok := new(big.Int).SetString(FpModulus, 16)
	if !ok {
		panic("ff: bad Fp modulus")
	}
	fpModulus = q
	bigToWords(q, fpQ[:])
	fpQInvNeg = negInv64(fpQ[0])
	r := new(big.Int).Lsh(big.NewInt(1), 384)
	bigToWords(new(big.Int).Mod(r, q), fpOne[:])
	bigToWords(new(big.Int).Mod(new(big.Int).Mul(r, r), q), fpRSquare[:])
	bigToWords(new(big.Int).Rsh(new(big.Int).Add(q, big.NewInt(1)), 2), fpSqrtExp[:])
	bigToWords(new(big.Int).Rsh(q, 1), fpHalf[:])
	initFpInverse()
	initFrobCoeff()
}

// FpModulusBig returns a copy of the modulus as a big.Int.
func FpModulusBig() *big.Int { return new(big.Int).Set(fpModulus) }

// NewFp returns v as a base-field element.
func NewFp(v uint64) Fp {
	var e Fp
	e.SetUint64(v)
	return e
}

// SetZero sets z to 0 and returns it.
func (z *Fp) SetZero() *Fp { *z = Fp{}; return z }

// SetOne sets z to 1 and returns it.
func (z *Fp) SetOne() *Fp { *z = fpOne; return z }

// SetUint64 sets z to v and returns it.
func (z *Fp) SetUint64(v uint64) *Fp {
	*z = Fp{v}
	z.toMont()
	return z
}

// Set copies x into z and returns z.
func (z *Fp) Set(x *Fp) *Fp { *z = *x; return z }

// SetBigInt sets z to v mod p and returns z.
func (z *Fp) SetBigInt(v *big.Int) *Fp {
	var w big.Int
	w.Mod(v, fpModulus)
	bigToWords(&w, z[:])
	z.toMont()
	return z
}

// SetHex sets z from a big-endian hex string and returns z.
func (z *Fp) SetHex(s string) *Fp {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		panic("ff: bad hex " + s)
	}
	return z.SetBigInt(v)
}

// BigInt returns the canonical (non-Montgomery) value of z.
func (z *Fp) BigInt() *big.Int {
	c := *z
	c.fromMont()
	return limbsToBig(c[:])
}

// String renders z in decimal.
func (z Fp) String() string { return z.BigInt().String() }

// Bytes returns the canonical 48-byte big-endian encoding.
func (z *Fp) Bytes() [FpBytes]byte {
	var out [FpBytes]byte
	c := *z
	c.fromMont()
	for i := 0; i < 6; i++ {
		for b := 0; b < 8; b++ {
			out[FpBytes-1-(i*8+b)] = byte(c[i] >> (8 * b))
		}
	}
	return out
}

// SetCanonicalBytes sets z from the 48-byte big-endian encoding Bytes
// produces and reports whether it was canonical, i.e. below p. Unlike
// SetBigInt it does not reduce: p+1 is a second 48-byte spelling of 1, and
// decoders of untrusted bytes must refuse it. On false z is left zero.
func (z *Fp) SetCanonicalBytes(buf []byte) bool {
	_ = buf[FpBytes-1]
	var c Fp
	for i := 0; i < 6; i++ {
		c[i] = binary.BigEndian.Uint64(buf[FpBytes-8*(i+1):])
	}
	var b uint64
	for i := 0; i < 6; i++ {
		_, b = bits.Sub64(c[i], fpQ[i], b)
	}
	if b == 0 { // c - p did not borrow: c >= p
		z.SetZero()
		return false
	}
	c.toMont()
	*z = c
	return true
}

// LexicographicallyLargest reports whether z > (p−1)/2, i.e. whether z is
// the larger of {z, −z} as an integer — the sign a compressed point
// encoding carries for its y coordinate.
func (z *Fp) LexicographicallyLargest() bool {
	c := *z
	c.fromMont()
	var b uint64
	for i := 0; i < 6; i++ {
		_, b = bits.Sub64(fpHalf[i], c[i], b)
	}
	return b != 0 // (p−1)/2 − c borrowed: c > (p−1)/2
}

// Equal reports whether z == x. It compares limbs: an array comparison
// of 48 bytes calls runtime memequal, which showed in MSM profiles.
func (z *Fp) Equal(x *Fp) bool {
	return (z[0]^x[0])|(z[1]^x[1])|(z[2]^x[2])|(z[3]^x[3])|(z[4]^x[4])|(z[5]^x[5]) == 0
}

// IsZero reports whether z == 0.
func (z *Fp) IsZero() bool { return z[0]|z[1]|z[2]|z[3]|z[4]|z[5] == 0 }

// IsOne reports whether z == 1.
func (z *Fp) IsOne() bool { return z.Equal(&fpOne) }

// Add sets z = x + y mod p and returns z.
func (z *Fp) Add(x, y *Fp) *Fp {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	z[4], c = bits.Add64(x[4], y[4], c)
	z[5], _ = bits.Add64(x[5], y[5], c)
	z.reduce()
	return z
}

// Double sets z = 2x mod p and returns z. A 1-bit left shift (p < 2^381,
// so nothing escapes the top limb) plus one branchless reduction.
func (z *Fp) Double(x *Fp) *Fp {
	z[5] = x[5]<<1 | x[4]>>63
	z[4] = x[4]<<1 | x[3]>>63
	z[3] = x[3]<<1 | x[2]>>63
	z[2] = x[2]<<1 | x[1]>>63
	z[1] = x[1]<<1 | x[0]>>63
	z[0] = x[0] << 1
	z.reduce()
	return z
}

// Sub sets z = x - y mod p and returns z. Branchless — on random
// operands the borrow is a coin flip, which a branch mispredicts half the
// time: both x - y and x - y + p are computed, each as one unbroken carry
// chain, and the borrow's mask selects between them (as in reduce).
func (z *Fp) Sub(x, y *Fp) *Fp {
	d0, b := bits.Sub64(x[0], y[0], 0)
	d1, b := bits.Sub64(x[1], y[1], b)
	d2, b := bits.Sub64(x[2], y[2], b)
	d3, b := bits.Sub64(x[3], y[3], b)
	d4, b := bits.Sub64(x[4], y[4], b)
	d5, b := bits.Sub64(x[5], y[5], b)
	e0, c := bits.Add64(d0, fpQ[0], 0)
	e1, c := bits.Add64(d1, fpQ[1], c)
	e2, c := bits.Add64(d2, fpQ[2], c)
	e3, c := bits.Add64(d3, fpQ[3], c)
	e4, c := bits.Add64(d4, fpQ[4], c)
	e5, _ := bits.Add64(d5, fpQ[5], c)
	wrap := -b // all-ones when x - y borrowed
	z[0] = d0&^wrap | e0&wrap
	z[1] = d1&^wrap | e1&wrap
	z[2] = d2&^wrap | e2&wrap
	z[3] = d3&^wrap | e3&wrap
	z[4] = d4&^wrap | e4&wrap
	z[5] = d5&^wrap | e5&wrap
	return z
}

// Neg sets z = -x mod p and returns z. Branchless: p - x is computed
// unconditionally and masked to zero when x == 0.
func (z *Fp) Neg(x *Fp) *Fp {
	mask := isNonZeroMask(x[0] | x[1] | x[2] | x[3] | x[4] | x[5])
	var b uint64
	z[0], b = bits.Sub64(fpQ[0], x[0], 0)
	z[1], b = bits.Sub64(fpQ[1], x[1], b)
	z[2], b = bits.Sub64(fpQ[2], x[2], b)
	z[3], b = bits.Sub64(fpQ[3], x[3], b)
	z[4], b = bits.Sub64(fpQ[4], x[4], b)
	z[5], _ = bits.Sub64(fpQ[5], x[5], b)
	z[0] &= mask
	z[1] &= mask
	z[2] &= mask
	z[3] &= mask
	z[4] &= mask
	z[5] &= mask
	return z
}

// reduce subtracts p once if z >= p, branchlessly: the borrow bit of z-p
// expands to a full-width mask selecting between difference and original.
func (z *Fp) reduce() {
	var r Fp
	var b uint64
	r[0], b = bits.Sub64(z[0], fpQ[0], 0)
	r[1], b = bits.Sub64(z[1], fpQ[1], b)
	r[2], b = bits.Sub64(z[2], fpQ[2], b)
	r[3], b = bits.Sub64(z[3], fpQ[3], b)
	r[4], b = bits.Sub64(z[4], fpQ[4], b)
	r[5], b = bits.Sub64(z[5], fpQ[5], b)
	keep := -b // all-ones when the subtraction borrowed, i.e. z < p
	z[0] = z[0]&keep | r[0]&^keep
	z[1] = z[1]&keep | r[1]&^keep
	z[2] = z[2]&keep | r[2]&^keep
	z[3] = z[3]&keep | r[3]&^keep
	z[4] = z[4]&keep | r[4]&^keep
	z[5] = z[5]&keep | r[5]&^keep
}

// Mul sets z = x*y mod p and returns z. Dispatches to the MULX/ADX
// assembly on capable amd64 hardware and to the unrolled no-carry CIOS in
// fp_arith.go everywhere else; FpMulBaseline in baseline.go keeps the old
// looped implementation for benchmarks and cross-checks.
func (z *Fp) Mul(x, y *Fp) *Fp {
	fpMul(z, x, y)
	return z
}

// Square sets z = x^2 mod p and returns z. On the pure-Go path this is a
// dedicated SOS squaring that computes each cross product once and
// doubles by shift — not Mul(x, x).
func (z *Fp) Square(x *Fp) *Fp {
	fpSquare(z, x)
	return z
}

func (z *Fp) toMont()   { z.Mul(z, &fpRSquare) }
func (z *Fp) fromMont() { one := Fp{1}; z.Mul(z, &one) }

// Exp sets z = x^e mod p and returns z.
func (z *Fp) Exp(x *Fp, e *big.Int) *Fp {
	if e.Sign() < 0 {
		panic("ff: negative exponent")
	}
	res := fpOne
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

// expLimbs sets z = x^e for a fixed exponent e given as plain
// little-endian limbs, by a 4-bit windowed ladder that allocates nothing.
func (z *Fp) expLimbs(x *Fp, e *Fp) *Fp {
	var tbl [16]Fp
	tbl[0] = fpOne
	tbl[1] = *x
	for i := 2; i < 16; i++ {
		tbl[i].Mul(&tbl[i-1], &tbl[1])
	}
	top := 95
	for top > 0 && (e[top/16]>>(uint(top%16)*4))&0xf == 0 {
		top--
	}
	res := tbl[(e[top/16]>>(uint(top%16)*4))&0xf]
	for w := top - 1; w >= 0; w-- {
		res.Square(&res)
		res.Square(&res)
		res.Square(&res)
		res.Square(&res)
		if d := (e[w/16] >> (uint(w%16) * 4)) & 0xf; d != 0 {
			res.Mul(&res, &tbl[d])
		}
	}
	*z = res
	return z
}

// BatchInverse sets out[i] = in[i]^{-1} for every i using Montgomery's
// batch-inversion trick: one field inversion plus 3(n-1) multiplications
// instead of n inversions. Zero inputs map to zero outputs, matching
// Inverse. out and in may alias. scratch, when at least len(in) long,
// is used for the prefix products and avoids the internal allocation —
// the MSM batch-affine kernel calls this in its hot loop.
func BatchInverse(out, in, scratch []Fp) {
	if len(out) != len(in) {
		panic("ff: BatchInverse length mismatch")
	}
	if len(in) == 0 {
		return
	}
	if len(scratch) < len(in) {
		scratch = make([]Fp, len(in))
	}
	// scratch[i] = product of all non-zero inputs before index i.
	acc := fpOne
	for i := range in {
		scratch[i] = acc
		if !in[i].IsZero() {
			acc.Mul(&acc, &in[i])
		}
	}
	var inv Fp
	inv.Inverse(&acc)
	// Walk backwards: out[i] = inv·prefix[i], then fold in[i] into inv.
	for i := len(in) - 1; i >= 0; i-- {
		if in[i].IsZero() {
			out[i].SetZero()
			continue
		}
		v := in[i] // save before out[i] possibly overwrites (aliasing)
		out[i].Mul(&inv, &scratch[i])
		inv.Mul(&inv, &v)
	}
}

// Sqrt sets z to a square root of x if one exists and reports success.
// p ≡ 3 (mod 4), so sqrt(x) = x^{(p+1)/4}, raised over the precomputed
// exponent limbs without allocating. On false z is left unchanged.
func (z *Fp) Sqrt(x *Fp) bool {
	var cand, chk Fp
	cand.expLimbs(x, &fpSqrtExp)
	chk.Square(&cand)
	if !chk.Equal(x) {
		return false
	}
	*z = cand
	return true
}
