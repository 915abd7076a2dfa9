package ff

import (
	"math/big"
	"math/bits"
)

// Fp inversion by Pornin's optimized binary GCD ("Optimized Binary GCD
// for Modular Inversion", IACR ePrint 2020/972), variable time, on the
// limbs: no big.Int and no heap allocation.
//
// The binary GCD of a = x and b = p keeps a ≡ u·x·s and b ≡ v·x·s
// (mod p) for a known scale s; when a reaches 0, b is the GCD 1 and
// v·s = x⁻¹. Each outer iteration runs invSteps of its steps on
// approximations of a and b (their low invSteps bits under their top
// invSteps+2 bits at the larger length), recording the steps as a 2×2
// matrix of signed factors, then applies the matrix to the full a and b
// exactly. The paper proves the approximations still shrink a and b by
// invSteps bits per iteration at worst, so a reaches 0 within
// ⌈(2·381−1)/invSteps⌉ = 26 iterations (about 19 on random input). u
// and v are updated once per pair of iterations with the pair's product
// matrix (|F| + |G| ≤ 2^60 per row), as (F·u + G·v)·2^-64 mod p: one
// Montgomery word reduction instead of a division by 2^60, which
// multiplies s by 16 per pair; fpInvCorrection undoes that and the
// Montgomery form at the end. u and v stay below 2p between updates.

// invSteps is the number of binary GCD steps per outer iteration: the
// approximations take 2·invSteps+2 ≤ 64 bits, and the factors, within
// 2^invSteps, pack two to a word.
const invSteps = 30

// fpInvPairs bounds the u, v updates: ⌈26/2⌉ pairs.
const fpInvPairs = 13

// fpInvCorrection[j] = R³·2^((64−2·invSteps)·j) mod p, the factor that
// turns the v of an inversion with j updates of u and v into Montgomery
// form: v = (xR)⁻¹·2^(−(64−2·invSteps)·j), and Mul(v, fpInvCorrection[j])
// = x⁻¹·R.
var fpInvCorrection [fpInvPairs + 1]Fp

func initFpInverse() {
	c := new(big.Int).Lsh(big.NewInt(1), 3*384)
	c.Mod(c, fpModulus)
	for j := range fpInvCorrection {
		bigToWords(c, fpInvCorrection[j][:])
		c.Lsh(c, 64-2*invSteps).Mod(c, fpModulus)
	}
}

// Inverse sets z = x⁻¹ mod p by the binary GCD above — under half the
// time of math/big's ModInverse and several times faster than a Fermat
// ladder, allocation-free; BatchInverse, the shared inversion of every
// batch-affine MSM batch, and the tower fields' inversions call it.
// Inverting zero yields zero.
func (z *Fp) Inverse(x *Fp) *Fp {
	if x.IsZero() {
		return z.SetZero()
	}
	a, b := *x, fpQ // the Montgomery limbs xR, as an integer below p
	u, v := Fp{1}, Fp{}
	var pf0, pg0, pf1, pg1 int64
	j := 0
	for i := 0; i&1 == 1 || !a.IsZero(); i++ {
		n := fpBitLen(&a, &b)
		f0, g0, f1, g1 := fpInvSteps(fpApprox(&a, n), fpApprox(&b, n))
		negA, negB := fpUpdateAB(&a, &b, (n+63)/64, f0, g0, f1, g1)
		if negA {
			f0, g0 = -f0, -g0
		}
		if negB {
			f1, g1 = -f1, -g1
		}
		if i&1 == 0 {
			pf0, pg0, pf1, pg1 = f0, g0, f1, g1
			continue
		}
		fpUpdateUV(&u, &v, f0*pf0+g0*pf1, f0*pg0+g0*pg1, f1*pf0+g1*pf1, f1*pg0+g1*pg1)
		j++
	}
	v.reduce() // v < 2p
	return z.Mul(&v, &fpInvCorrection[j])
}

// fpInvSteps runs invSteps binary GCD steps on the approximations aa
// and bb and returns them as the matrix [f0 g0; f1 g1] that maps (a, b)
// to 2^invSteps·(a', b'). A step halves an even aa, or sets (aa, bb) to
// (|aa−bb|/2, min(aa, bb)) for an odd one. Each odd step is taken with
// the even steps that follow it, as one shift by the trailing zeros of
// |aa−bb|, and selects by masks, since whether aa < bb is a coin flip a
// branch would mispredict.
func fpInvSteps(aa, bb uint64) (f0, g0, f1, g1 int64) {
	// Each row of the matrix is one word, f + g·2^32, so one swap,
	// subtraction or shift updates both of its factors: |f|, |g| stay
	// within 2^invSteps, so g·2^32 cannot overflow and the low half holds
	// f as an int32. Shift counts are masked to 6 bits, which spares the
	// compiler's guard for shifts of 64 and more.
	r0, r1 := int64(1), int64(1)<<32
	k := uint(invSteps)
	tz := uint(bits.TrailingZeros64(aa|1<<k)) & 63 // at most k
	aa >>= tz
	r1 <<= tz
	for k -= tz; k > 0; k -= tz {
		d, borrow := bits.Sub64(aa, bb, 0)
		// |d| has d's trailing zeros, so the shift need not wait for it.
		tz = uint(bits.TrailingZeros64(d|1<<(k&63))) & 63
		lt := -borrow // all ones when aa < bb: swap the rows
		bb ^= (aa ^ bb) & lt
		aa = ((d ^ lt) - lt) >> tz
		t := (r0 ^ r1) & int64(lt)
		r0, r1 = r0^t, r1^t
		r0 -= r1
		r1 <<= tz
	}
	f0, f1 = int64(int32(r0)), int64(int32(r1))
	return f0, (r0 - f0) >> 32, f1, (r1 - f1) >> 32
}

// fpBitLen returns the larger bit length of a's and b's limbs read as
// integers.
func fpBitLen(a, b *Fp) int {
	for i := 5; i >= 0; i-- {
		if w := a[i] | b[i]; w != 0 {
			return 64*i + bits.Len64(w)
		}
	}
	return 0
}

// fpApprox returns x's low invSteps bits under its invSteps+2 bits below
// bit n, n the larger operand's length: the paper's approximation, which
// is x itself when x fits its width.
func fpApprox(x *Fp, n int) uint64 {
	const width, low = 2*invSteps + 2, 1<<invSteps - 1
	if n <= width {
		return x[0]
	}
	s := n - width
	idx, sh := s/64, uint(s%64)
	w := x[idx] >> sh
	if sh != 0 && idx < 5 {
		w |= x[idx+1] << (64 - sh)
	}
	return (w>>invSteps)&(1<<(invSteps+2)-1)<<invSteps | x[0]&low
}

// lcStep returns limb i of f·x + g·y + c and the signed carry out, for
// factors f, g in two's complement with sign masks sf, sg, limbs xi, yi
// and the signed carry c of the limb below, while |f·xi + g·yi| < 2^126.
// A negative factor's word is its value plus 2^64, so its product is
// xi·2^64 too large: the high word takes that back.
func lcStep(xi, yi, f, g, sf, sg, c uint64) (uint64, uint64) {
	h1, l1 := bits.Mul64(f, xi)
	h2, l2 := bits.Mul64(g, yi)
	h := h1 - xi&sf + h2 - yi&sg
	l, cy := bits.Add64(l1, l2, 0)
	h += cy
	l, cy = bits.Add64(l, c, 0)
	return l, h + cy + uint64(int64(c)>>63)
}

// fpUpdateAB sets (a, b) to (|f0·a + g0·b|, |f1·a + g1·b|) / 2^invSteps
// over the low nl limbs, which hold a and b whole, and reports which sums
// were negative. The GCD steps the factors record make the divisions
// exact.
func fpUpdateAB(a, b *Fp, nl int, f0, g0, f1, g1 int64) (negA, negB bool) {
	sf0, sg0 := uint64(f0>>63), uint64(g0>>63)
	sf1, sg1 := uint64(f1>>63), uint64(g1>>63)
	var ra, rb [7]uint64
	var ca, cb uint64
	for i := 0; i < nl; i++ {
		ra[i], ca = lcStep(a[i], b[i], uint64(f0), uint64(g0), sf0, sg0, ca)
		rb[i], cb = lcStep(a[i], b[i], uint64(f1), uint64(g1), sf1, sg1, cb)
	}
	ra[nl], rb[nl] = ca, cb
	return fpAbsShift(a, &ra, nl), fpAbsShift(b, &rb, nl)
}

// fpAbsShift sets out = |r| / 2^invSteps for the two's complement r of
// nl+1 words, which 2^invSteps divides, and reports whether r was
// negative. For a negative r, ¬r = |r| − 1, and since the division is
// exact, (¬r >> invSteps) + 1 = |r| >> invSteps: the words shift
// independently, and only the +1 carries.
func fpAbsShift(out *Fp, r *[7]uint64, nl int) bool {
	s := uint64(int64(r[nl]) >> 63)
	for i := 0; i < nl; i++ {
		out[i] = (r[i]^s)>>invSteps | (r[i+1]^s)<<(64-invSteps)
	}
	for i := nl; i < 6; i++ {
		out[i] = 0
	}
	for i, c := 0, s&1; c != 0 && i < nl; i++ {
		out[i], c = bits.Add64(out[i], 0, c)
	}
	return s != 0
}

// fpUpdateUV sets (u, v) to ((f0·u + g0·v), (f1·u + g1·v))·2^-64 mod p,
// for u, v < 2p and |f| + |g| ≤ 2^60 in each row, leaving them below 2p.
func fpUpdateUV(u, v *Fp, f0, g0, f1, g1 int64) {
	sf0, sg0 := uint64(f0>>63), uint64(g0>>63)
	sf1, sg1 := uint64(f1>>63), uint64(g1>>63)
	var ru, rv Fp
	var cu, cv uint64
	for i := 0; i < 6; i++ {
		ru[i], cu = lcStep(u[i], v[i], uint64(f0), uint64(g0), sf0, sg0, cu)
		rv[i], cv = lcStep(u[i], v[i], uint64(f1), uint64(g1), sf1, sg1, cv)
	}
	fpReduceWord(u, &ru, cu)
	fpReduceWord(v, &rv, cv)
}

// fpReduceWord sets z = r·2^-64 mod p, below 2p, for the signed
// r = lo + top·2^384 with |r| < 2^61·p: one Montgomery word reduction
// leaves t = (r + m·p)/2^64 in (−p/8, 9p/8), and adding p when t is
// negative brings it into [0, 2p).
func fpReduceWord(z, lo *Fp, top uint64) {
	m := lo[0] * fpQInvNeg
	c := maddHi(m, fpQ[0], lo[0])
	c, z[0] = madd2(m, fpQ[1], lo[1], c)
	c, z[1] = madd2(m, fpQ[2], lo[2], c)
	c, z[2] = madd2(m, fpQ[3], lo[3], c)
	c, z[3] = madd2(m, fpQ[4], lo[4], c)
	c, z[4] = madd2(m, fpQ[5], lo[5], c)
	z[5] = top + c
	neg := uint64(int64(z[5]) >> 63)
	c = 0
	for i := range z {
		z[i], c = bits.Add64(z[i], fpQ[i]&neg, c)
	}
}
