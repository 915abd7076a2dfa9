package ff

import (
	"math/big"
	"math/bits"
)

// GLV scalar decomposition for BLS12-381.
//
// G1 carries the curve endomorphism φ(x,y) = (β·x, y) (β a primitive cube
// root of unity in Fp), which acts on the r-torsion as multiplication by
// λ = x² − 1 mod r, where x = -0xd201000000010000 is the BLS parameter
// (λ² + λ + 1 ≡ 0 mod r). Splitting a scalar k as k = k₁ + k₂·λ with
// |k₁|, |k₂| ≲ √r ≈ 2¹²⁸ lets the MSM window loop run over half the bit
// length (§4.2's bit-serial PMULT cost, halved).
//
// The split is Babai rounding against the lattice of vectors (a, b) with
// a + b·λ ≡ 0 (mod r), using the short basis
//
//	v₁ = (λ, −1)      (λ − λ = 0)
//	v₂ = (1, x²)      (1 + x²·λ = x⁴ − x² + 1 = r)
//
// whose determinant is λ·x² + 1 = r. Solving (k, 0) = c₁v₁ + c₂v₂ over ℚ
// gives c₁ = k·x²/r and c₂ = k/r; rounding to integers and subtracting
// leaves (k₁, k₂) = (k − ĉ₁λ − ĉ₂, ĉ₁ − ĉ₂x²) with ∞-norm at most
// (‖v₁‖∞ + ‖v₂‖∞)/2 ≈ x² < 2¹²⁸.
//
// GLVSplit does the rounding on fixed limbs. ĉ₁ = ⌊N/r⌋ for
// N = k·x² + ⌊r/2⌋ (< 2³⁸⁴); multiplying N by the precomputed reciprocal
// m = ⌊2³⁸⁴/r⌋ and keeping the top words gives a quotient that is exact or
// one short (N·m/2³⁸⁴ > N/r − 1), and the remainder N − q·r, which then
// lies in [0, 2r) and so fits 256 bits, says which. ĉ₂ = round(k/r) is
// 1 exactly when 2k ≥ r. Everything after is 256-bit two's complement.

// GLVBits bounds the bit length of each half-scalar magnitude.
const GLVBits = 128

var (
	glvX2     *big.Int // x², x the BLS parameter (sign irrelevant: even power)
	glvLambda *big.Int // λ = x² − 1

	// Limb forms of the constants GLVSplit works with.
	glvX2Limbs     [2]uint64
	glvLambdaLimbs [2]uint64
	glvHalfR       [4]uint64 // ⌊r/2⌋
	glvRecip       [3]uint64 // ⌊2³⁸⁴/r⌋
)

func init() {
	x := new(big.Int).SetUint64(0xd201000000010000)
	glvX2 = new(big.Int).Mul(x, x)
	glvLambda = new(big.Int).Sub(glvX2, big.NewInt(1))
	bigToWords(glvX2, glvX2Limbs[:])
	bigToWords(glvLambda, glvLambdaLimbs[:])
	bigToWords(new(big.Int).Rsh(frModulus, 1), glvHalfR[:])
	bigToWords(new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 384), frModulus), glvRecip[:])
}

// GLVLambda returns λ, the eigenvalue of the G1 endomorphism on the
// r-torsion (the curve package uses it to select the matching β).
func GLVLambda() *big.Int { return new(big.Int).Set(glvLambda) }

// HalfScalar is one signed component of a GLV decomposition: a ≤128-bit
// magnitude in two little-endian 64-bit words plus a sign.
type HalfScalar struct {
	W   [2]uint64
	Neg bool
}

// IsZero reports whether the half-scalar is zero.
func (h *HalfScalar) IsZero() bool { return h.W[0] == 0 && h.W[1] == 0 }

// GLVSplit decomposes k into (k₁, k₂) with k ≡ k₁ + k₂·λ (mod r) and both
// magnitudes under 2¹²⁸. It allocates nothing and is safe for concurrent
// use.
func GLVSplit(k *Fr) (k1, k2 HalfScalar) {
	kc := k.CanonicalLimbs()

	// N = k·x² + ⌊r/2⌋.
	var n [6]uint64
	mulWords(n[:], kc[:], glvX2Limbs[:])
	var c uint64
	n[0], c = bits.Add64(n[0], glvHalfR[0], 0)
	n[1], c = bits.Add64(n[1], glvHalfR[1], c)
	n[2], c = bits.Add64(n[2], glvHalfR[2], c)
	n[3], c = bits.Add64(n[3], glvHalfR[3], c)
	n[4], c = bits.Add64(n[4], 0, c)
	n[5], _ = bits.Add64(n[5], 0, c)

	// ĉ₁ estimate: the top words of N·m, then the one-step correction.
	var p [9]uint64
	mulWords(p[:], n[:], glvRecip[:])
	c1 := [2]uint64{p[6], p[7]}
	var qr [6]uint64
	mulWords(qr[:], c1[:], frQ[:])
	var rem [4]uint64
	var b uint64
	rem[0], b = bits.Sub64(n[0], qr[0], 0)
	rem[1], b = bits.Sub64(n[1], qr[1], b)
	rem[2], b = bits.Sub64(n[2], qr[2], b)
	rem[3], _ = bits.Sub64(n[3], qr[3], b)
	_, b = bits.Sub64(rem[0], frQ[0], 0)
	_, b = bits.Sub64(rem[1], frQ[1], b)
	_, b = bits.Sub64(rem[2], frQ[2], b)
	_, b = bits.Sub64(rem[3], frQ[3], b)
	c1[0], c = bits.Add64(c1[0], 1-b, 0) // rem ≥ r: the estimate was one short
	c1[1] += c

	// ĉ₂ = [2k ≥ r]; 2k < 2²⁵⁶ since k < r < 2²⁵⁵.
	_, b = bits.Sub64(kc[0]<<1, frQ[0], 0)
	_, b = bits.Sub64(kc[1]<<1|kc[0]>>63, frQ[1], b)
	_, b = bits.Sub64(kc[2]<<1|kc[1]>>63, frQ[2], b)
	_, b = bits.Sub64(kc[3]<<1|kc[2]>>63, frQ[3], b)
	c2 := 1 - b

	// k₁ = k − ĉ₁λ − ĉ₂.
	var t [4]uint64
	mulWords(t[:], c1[:], glvLambdaLimbs[:])
	var v [4]uint64
	v[0], b = bits.Sub64(kc[0], t[0], 0)
	v[1], b = bits.Sub64(kc[1], t[1], b)
	v[2], b = bits.Sub64(kc[2], t[2], b)
	v[3], _ = bits.Sub64(kc[3], t[3], b)
	v[0], b = bits.Sub64(v[0], c2, 0)
	v[1], b = bits.Sub64(v[1], 0, b)
	v[2], b = bits.Sub64(v[2], 0, b)
	v[3], _ = bits.Sub64(v[3], 0, b)
	k1 = halfFromWords(&v)

	// k₂ = ĉ₁ − ĉ₂x².
	mask := -c2
	v[0], b = bits.Sub64(c1[0], glvX2Limbs[0]&mask, 0)
	v[1], b = bits.Sub64(c1[1], glvX2Limbs[1]&mask, b)
	v[2], b = bits.Sub64(0, 0, b)
	v[3], _ = bits.Sub64(0, 0, b)
	k2 = halfFromWords(&v)
	return k1, k2
}

// mulWords sets z = x·y for little-endian words, len(z) = len(x)+len(y).
func mulWords(z, x, y []uint64) {
	for i := range z {
		z[i] = 0
	}
	for i, xi := range x {
		var carry uint64
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			var c uint64
			lo, c = bits.Add64(lo, z[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			z[i+j] = lo
			carry = hi
		}
		z[i+len(y)] = carry
	}
}

// halfFromWords converts a 256-bit two's-complement value into
// sign+magnitude form, checking the GLV norm bound.
func halfFromWords(v *[4]uint64) HalfScalar {
	var h HalfScalar
	if v[3]>>63 != 0 {
		h.Neg = true
		var b uint64
		v[0], b = bits.Sub64(0, v[0], 0)
		v[1], b = bits.Sub64(0, v[1], b)
		v[2], b = bits.Sub64(0, v[2], b)
		v[3], _ = bits.Sub64(0, v[3], b)
	}
	if v[2]|v[3] != 0 {
		panic("ff: GLV half-scalar exceeds 128 bits")
	}
	h.W = [2]uint64{v[0], v[1]}
	return h
}
