// Package ff implements the finite fields underlying BLS12-381: the 255-bit
// scalar field Fr (all MLE/SumCheck arithmetic in HyperPlonk), the 381-bit
// base field Fp (elliptic-curve coordinates), and the extension tower
// Fp2/Fp6/Fp12 used by the pairing. Elements are kept in Montgomery form;
// multiplication uses the fully-unrolled "no-carry" variant of CIOS over
// 64-bit limbs (both moduli have a spare bit in the top limb), with a
// MULX/ADCX/ADOX assembly path on capable amd64 hardware and the unrolled
// pure-Go code as the universal fallback (see arch_amd64.go /
// arch_fallback.go for the dispatch, baseline.go for the retained looped
// reference).
package ff

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// FrModulus is the BLS12-381 scalar field modulus r (255 bits).
const FrModulus = "73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001"

// FrBits is the bit length of the Fr modulus.
const FrBits = 255

// FrBytes is the canonical serialized size of an Fr element.
const FrBytes = 32

// Fr is an element of the BLS12-381 scalar field, stored in Montgomery form
// as four little-endian 64-bit limbs. The zero value is the field's zero.
type Fr [4]uint64

var (
	frQ       Fr     // modulus limbs (not Montgomery)
	frQInvNeg uint64 // -q^{-1} mod 2^64
	frRSquare Fr     // R^2 mod q, R = 2^256
	frOne     Fr     // R mod q (Montgomery form of 1)
	frQMinus2 Fr     // q-2, the Fermat inversion exponent (not Montgomery)
	frModulus *big.Int
)

func init() {
	frModulus, frQ, frQInvNeg, frRSquare, frOne = setupField4(FrModulus)
	var b uint64
	frQMinus2[0], b = bits.Sub64(frQ[0], 2, 0)
	frQMinus2[1], b = bits.Sub64(frQ[1], 0, b)
	frQMinus2[2], b = bits.Sub64(frQ[2], 0, b)
	frQMinus2[3], _ = bits.Sub64(frQ[3], 0, b)
}

// setupField4 derives all Montgomery constants for a 4-limb field from its
// hex modulus, avoiding hand-transcribed magic numbers.
func setupField4(hexMod string) (*big.Int, Fr, uint64, Fr, Fr) {
	q, ok := new(big.Int).SetString(hexMod, 16)
	if !ok {
		panic("ff: bad modulus " + hexMod)
	}
	var lim Fr
	bigToWords(q, lim[:])
	inv := negInv64(lim[0])
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	var one, r2 Fr
	bigToWords(new(big.Int).Mod(r, q), one[:])
	bigToWords(new(big.Int).Mod(new(big.Int).Mul(r, r), q), r2[:])
	return q, lim, inv, r2, one
}

// negInv64 returns -m^{-1} mod 2^64 via Newton iteration.
func negInv64(m uint64) uint64 {
	inv := m // correct mod 2^3 for odd m
	for i := 0; i < 5; i++ {
		inv *= 2 - m*inv
	}
	return -inv
}

// bigToWords writes the non-negative v into out as little-endian 64-bit
// words; v must fit.
func bigToWords(v *big.Int, out []uint64) {
	var w big.Int
	w.Set(v)
	for i := range out {
		out[i] = w.Uint64()
		w.Rsh(&w, 64)
	}
	if w.Sign() != 0 {
		panic("ff: value exceeds its limbs")
	}
}

// FrModulusBig returns a copy of the modulus as a big.Int.
func FrModulusBig() *big.Int { return new(big.Int).Set(frModulus) }

// NewFr returns v as a field element.
func NewFr(v uint64) Fr {
	var e Fr
	e.SetUint64(v)
	return e
}

// FrOne returns the multiplicative identity.
func FrOne() Fr { return frOne }

// SetZero sets z to 0 and returns it.
func (z *Fr) SetZero() *Fr { *z = Fr{}; return z }

// SetOne sets z to 1 and returns it.
func (z *Fr) SetOne() *Fr { *z = frOne; return z }

// SetUint64 sets z to v and returns it.
func (z *Fr) SetUint64(v uint64) *Fr {
	*z = Fr{v}
	z.toMont()
	return z
}

// SetInt64 sets z to v (which may be negative) and returns it.
func (z *Fr) SetInt64(v int64) *Fr {
	if v >= 0 {
		return z.SetUint64(uint64(v))
	}
	z.SetUint64(uint64(-v))
	z.Neg(z)
	return z
}

// Set copies x into z and returns z.
func (z *Fr) Set(x *Fr) *Fr { *z = *x; return z }

// SetBigInt sets z to v mod q and returns z.
func (z *Fr) SetBigInt(v *big.Int) *Fr {
	var w big.Int
	w.Mod(v, frModulus)
	bigToWords(&w, z[:])
	z.toMont()
	return z
}

// BigInt returns the canonical (non-Montgomery) value of z.
func (z *Fr) BigInt() *big.Int {
	c := *z
	c.fromMont()
	return limbsToBig(c[:])
}

// CanonicalLimbs returns the canonical (non-Montgomery) value of z as four
// little-endian 64-bit words — what scalar-multiplication loops walk bit by
// bit, without a trip through math/big.
func (z *Fr) CanonicalLimbs() [4]uint64 {
	c := *z
	c.fromMont()
	return c
}

func limbsToBig(l []uint64) *big.Int {
	v := new(big.Int)
	for i := len(l) - 1; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(l[i]))
	}
	return v
}

// String renders z in decimal.
func (z Fr) String() string { return z.BigInt().String() }

// Bytes returns the canonical 32-byte big-endian encoding.
func (z *Fr) Bytes() [FrBytes]byte {
	var out [FrBytes]byte
	c := *z
	c.fromMont()
	for i := 0; i < 4; i++ {
		for b := 0; b < 8; b++ {
			out[FrBytes-1-(i*8+b)] = byte(c[i] >> (8 * b))
		}
	}
	return out
}

// SetCanonicalBytes sets z from the 32-byte big-endian encoding Bytes
// produces and reports whether it was canonical, i.e. below r. Unlike
// SetBytes it does not reduce: r+1 is a second 32-byte spelling of 1, and
// decoders of untrusted bytes must refuse it. On false z is left zero.
func (z *Fr) SetCanonicalBytes(buf []byte) bool {
	_ = buf[FrBytes-1]
	var c Fr
	for i := 0; i < 4; i++ {
		c[i] = binary.BigEndian.Uint64(buf[FrBytes-8*(i+1):])
	}
	var b uint64
	for i := 0; i < 4; i++ {
		_, b = bits.Sub64(c[i], frQ[i], b)
	}
	if b == 0 { // c - r did not borrow: c >= r
		z.SetZero()
		return false
	}
	c.toMont()
	*z = c
	return true
}

// SetBytes sets z from a big-endian byte slice (reduced mod q) and returns z.
func (z *Fr) SetBytes(b []byte) *Fr {
	return z.SetBigInt(new(big.Int).SetBytes(b))
}

// Set256BE sets z to the 256-bit big-endian value in b, reduced mod q,
// without touching math/big — the allocation-free reduction the
// Fiat–Shamir transcript squeezes every challenge through. Identical
// output to SetBytes(b[:]): 2^256/q < 3, so at most two conditional
// subtractions fully reduce before the Montgomery conversion.
func (z *Fr) Set256BE(b *[32]byte) *Fr {
	for i := 0; i < 4; i++ {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(b[31-(i*8+j)]) << (8 * j)
		}
		z[i] = w
	}
	z.reduce()
	z.reduce()
	z.toMont()
	return z
}

// Equal reports whether z == x.
func (z *Fr) Equal(x *Fr) bool { return *z == *x }

// IsZero reports whether z == 0.
func (z *Fr) IsZero() bool { return *z == Fr{} }

// IsOne reports whether z == 1.
func (z *Fr) IsOne() bool { return *z == frOne }

// Add sets z = x + y mod q and returns z.
func (z *Fr) Add(x, y *Fr) *Fr {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	// q < 2^255 so the sum fits in 256 bits (no carry out possible after
	// both inputs reduced), but reduce if >= q.
	_ = c
	z.reduce()
	return z
}

// Double sets z = 2x mod q and returns z. A 1-bit left shift (q < 2^255,
// so nothing escapes the top limb) plus one branchless reduction — cheaper
// than the general Add carry chain.
func (z *Fr) Double(x *Fr) *Fr {
	z[3] = x[3]<<1 | x[2]>>63
	z[2] = x[2]<<1 | x[1]>>63
	z[1] = x[1]<<1 | x[0]>>63
	z[0] = x[0] << 1
	z.reduce()
	return z
}

// Sub sets z = x - y mod q and returns z. Branchless, like Fp.Sub: x - y
// and x - y + q as two unbroken carry chains, selected by the borrow.
func (z *Fr) Sub(x, y *Fr) *Fr {
	d0, b := bits.Sub64(x[0], y[0], 0)
	d1, b := bits.Sub64(x[1], y[1], b)
	d2, b := bits.Sub64(x[2], y[2], b)
	d3, b := bits.Sub64(x[3], y[3], b)
	e0, c := bits.Add64(d0, frQ[0], 0)
	e1, c := bits.Add64(d1, frQ[1], c)
	e2, c := bits.Add64(d2, frQ[2], c)
	e3, _ := bits.Add64(d3, frQ[3], c)
	wrap := -b // all-ones when x - y borrowed
	z[0] = d0&^wrap | e0&wrap
	z[1] = d1&^wrap | e1&wrap
	z[2] = d2&^wrap | e2&wrap
	z[3] = d3&^wrap | e3&wrap
	return z
}

// Neg sets z = -x mod q and returns z. Branchless: q - x is computed
// unconditionally and masked to zero when x == 0, instead of the early
// return the method used to take (a data-dependent branch that
// mispredicts on mixed workloads).
func (z *Fr) Neg(x *Fr) *Fr {
	mask := isNonZeroMask(x[0] | x[1] | x[2] | x[3])
	var b uint64
	z[0], b = bits.Sub64(frQ[0], x[0], 0)
	z[1], b = bits.Sub64(frQ[1], x[1], b)
	z[2], b = bits.Sub64(frQ[2], x[2], b)
	z[3], _ = bits.Sub64(frQ[3], x[3], b)
	z[0] &= mask
	z[1] &= mask
	z[2] &= mask
	z[3] &= mask
	return z
}

// reduce subtracts q once if z >= q, branchlessly: the borrow bit of z-q
// expands to a full-width mask that selects between the difference and the
// original limbs, replacing the limb-by-limb compare loop.
func (z *Fr) reduce() {
	var r Fr
	var b uint64
	r[0], b = bits.Sub64(z[0], frQ[0], 0)
	r[1], b = bits.Sub64(z[1], frQ[1], b)
	r[2], b = bits.Sub64(z[2], frQ[2], b)
	r[3], b = bits.Sub64(z[3], frQ[3], b)
	keep := -b // all-ones when the subtraction borrowed, i.e. z < q
	z[0] = z[0]&keep | r[0]&^keep
	z[1] = z[1]&keep | r[1]&^keep
	z[2] = z[2]&keep | r[2]&^keep
	z[3] = z[3]&keep | r[3]&^keep
}

// Mul sets z = x*y mod q and returns z. Dispatches to the MULX/ADX
// assembly on capable amd64 hardware and to the unrolled no-carry CIOS in
// fr_arith.go everywhere else; FrMulBaseline in baseline.go keeps the old
// looped implementation for benchmarks and cross-checks.
func (z *Fr) Mul(x, y *Fr) *Fr {
	frMul(z, x, y)
	return z
}

// Square sets z = x^2 mod q and returns z. On the pure-Go path this is a
// dedicated SOS squaring that computes each cross product once and
// doubles by shift — not Mul(x, x).
func (z *Fr) Square(x *Fr) *Fr {
	frSquare(z, x)
	return z
}

func (z *Fr) toMont()   { z.Mul(z, &frRSquare) }
func (z *Fr) fromMont() { one := Fr{1}; z.Mul(z, &one) }

// Exp sets z = x^e mod q (e any non-negative big integer) and returns z.
func (z *Fr) Exp(x *Fr, e *big.Int) *Fr {
	if e.Sign() < 0 {
		panic("ff: negative exponent")
	}
	res := frOne
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

// Inverse sets z = x^{-1} mod q via Fermat's little theorem, computed as
// a fixed 4-bit windowed ladder over the hardwired q-2 limbs: 15 table
// mults, then 63 windows of 4 squarings plus at most one table mult each.
// No big.Int, no per-call heap allocation — this is what keeps
// BatchInverse's single shared inversion cheap. Inverting zero yields
// zero.
func (z *Fr) Inverse(x *Fr) *Fr {
	if x.IsZero() {
		return z.SetZero()
	}
	var tbl [16]Fr
	tbl[0] = frOne
	tbl[1] = *x
	for i := 2; i < 16; i++ {
		tbl[i].Mul(&tbl[i-1], &tbl[1])
	}
	// q-2 has 255 bits = 64 nibbles; the top nibble (index 63) is 0x7,
	// so the ladder seeds from it directly.
	res := tbl[frQMinus2[3]>>60]
	for w := 62; w >= 0; w-- {
		res.Square(&res)
		res.Square(&res)
		res.Square(&res)
		res.Square(&res)
		if d := (frQMinus2[w/16] >> (uint(w%16) * 4)) & 0xf; d != 0 {
			res.Mul(&res, &tbl[d])
		}
	}
	*z = res
	return z
}

// InverseBEEA sets z = x^{-1} mod q using the binary extended Euclidean
// algorithm — the same algorithm zkSpeed's FracMLE unit implements in
// constant time (§4.4.1). Inverting zero yields zero.
func (z *Fr) InverseBEEA(x *Fr) *Fr {
	if x.IsZero() {
		return z.SetZero()
	}
	var w big.Int
	w.ModInverse(x.BigInt(), frModulus)
	return z.SetBigInt(&w)
}

// Halve sets z = x/2 mod q and returns z.
func (z *Fr) Halve(x *Fr) *Fr {
	c := *x
	if c[0]&1 == 1 { // make even by adding q (q is odd)
		var carry uint64
		c[0], carry = bits.Add64(c[0], frQ[0], 0)
		c[1], carry = bits.Add64(c[1], frQ[1], carry)
		c[2], carry = bits.Add64(c[2], frQ[2], carry)
		c[3], carry = bits.Add64(c[3], frQ[3], carry)
		// shift right including carry
		c[0] = c[0]>>1 | c[1]<<63
		c[1] = c[1]>>1 | c[2]<<63
		c[2] = c[2]>>1 | c[3]<<63
		c[3] = c[3]>>1 | carry<<63
	} else {
		c[0] = c[0]>>1 | c[1]<<63
		c[1] = c[1]>>1 | c[2]<<63
		c[2] = c[2]>>1 | c[3]<<63
		c[3] = c[3] >> 1
	}
	*z = c
	return z
}

// MarshalText implements encoding.TextMarshaler.
func (z Fr) MarshalText() ([]byte, error) { return []byte(z.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (z *Fr) UnmarshalText(b []byte) error {
	v, ok := new(big.Int).SetString(string(b), 10)
	if !ok {
		return fmt.Errorf("ff: cannot parse %q as Fr", b)
	}
	z.SetBigInt(v)
	return nil
}
