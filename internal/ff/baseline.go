package ff

import "math/bits"

// Retained pre-unrolling reference multipliers. FrMulBaseline and
// FpMulBaseline are the looped CIOS implementations (with the original
// compare-loop reduction) that Fr.Mul/Fp.Mul shipped with before the
// unrolled no-carry rewrite — kept verbatim, exactly like msm keeps
// Pippenger and sumcheck keeps ProveReference, so that
//
//   - the ff/{fr,fp}/mul-baseline bench records stay comparable across the
//     trajectory, and the CI -assert-faster gate can prove the unrolled
//     path's speedup within a single run on whatever hardware CI has;
//   - the property tests have an independent implementation to agree with.
//
// They are reference paths, not API: nothing outside tests and the bench
// suite should call them.

// FrMulBaseline sets z = x*y mod q via the looped Montgomery CIOS the
// package used before the unrolled rewrite, and returns z.
func FrMulBaseline(z, x, y *Fr) *Fr {
	var t [5]uint64
	for i := 0; i < 4; i++ {
		// t = t + x * y[i]
		var c uint64
		var hi, lo uint64
		d := y[i]
		hi, lo = bits.Mul64(x[0], d)
		t[0], c = bits.Add64(t[0], lo, 0)
		carry := hi
		hi, lo = bits.Mul64(x[1], d)
		lo, cc := bits.Add64(lo, carry, 0)
		carry = hi + cc
		t[1], c = bits.Add64(t[1], lo, c)
		hi, lo = bits.Mul64(x[2], d)
		lo, cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
		t[2], c = bits.Add64(t[2], lo, c)
		hi, lo = bits.Mul64(x[3], d)
		lo, cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
		t[3], c = bits.Add64(t[3], lo, c)
		t[4], _ = bits.Add64(t[4], carry, c)

		// Montgomery reduction step: m = t[0] * qInvNeg; t += m*q; t >>= 64
		m := t[0] * frQInvNeg
		hi, lo = bits.Mul64(m, frQ[0])
		_, c = bits.Add64(t[0], lo, 0)
		carry = hi
		hi, lo = bits.Mul64(m, frQ[1])
		lo, cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
		t[0], c = bits.Add64(t[1], lo, c)
		hi, lo = bits.Mul64(m, frQ[2])
		lo, cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
		t[1], c = bits.Add64(t[2], lo, c)
		hi, lo = bits.Mul64(m, frQ[3])
		lo, cc = bits.Add64(lo, carry, 0)
		carry = hi + cc
		t[2], c = bits.Add64(t[3], lo, c)
		t[3], _ = bits.Add64(t[4], carry, c)
		t[4] = 0
	}
	z[0], z[1], z[2], z[3] = t[0], t[1], t[2], t[3]
	if !z.smallerThanQ() {
		var b uint64
		z[0], b = bits.Sub64(z[0], frQ[0], 0)
		z[1], b = bits.Sub64(z[1], frQ[1], b)
		z[2], b = bits.Sub64(z[2], frQ[2], b)
		z[3], _ = bits.Sub64(z[3], frQ[3], b)
	}
	return z
}

func (z *Fr) smallerThanQ() bool {
	for i := 3; i >= 0; i-- {
		if z[i] < frQ[i] {
			return true
		}
		if z[i] > frQ[i] {
			return false
		}
	}
	return false // equal
}

// FpMulBaseline sets z = x*y mod p via the looped Montgomery CIOS the
// package used before the unrolled rewrite, and returns z.
func FpMulBaseline(z, x, y *Fp) *Fp {
	var t [7]uint64
	for i := 0; i < 6; i++ {
		d := y[i]
		var c, cc, carry, hi, lo uint64
		hi, lo = bits.Mul64(x[0], d)
		t[0], c = bits.Add64(t[0], lo, 0)
		carry = hi
		for j := 1; j < 6; j++ {
			hi, lo = bits.Mul64(x[j], d)
			lo, cc = bits.Add64(lo, carry, 0)
			carry = hi + cc
			t[j], c = bits.Add64(t[j], lo, c)
		}
		t[6], _ = bits.Add64(t[6], carry, c)

		m := t[0] * fpQInvNeg
		hi, lo = bits.Mul64(m, fpQ[0])
		_, c = bits.Add64(t[0], lo, 0)
		carry = hi
		for j := 1; j < 6; j++ {
			hi, lo = bits.Mul64(m, fpQ[j])
			lo, cc = bits.Add64(lo, carry, 0)
			carry = hi + cc
			t[j-1], c = bits.Add64(t[j], lo, c)
		}
		t[5], _ = bits.Add64(t[6], carry, c)
		t[6] = 0
	}
	copy(z[:], t[:6])
	if !z.smallerThanQ() {
		var b uint64
		z[0], b = bits.Sub64(z[0], fpQ[0], 0)
		z[1], b = bits.Sub64(z[1], fpQ[1], b)
		z[2], b = bits.Sub64(z[2], fpQ[2], b)
		z[3], b = bits.Sub64(z[3], fpQ[3], b)
		z[4], b = bits.Sub64(z[4], fpQ[4], b)
		z[5], _ = bits.Sub64(z[5], fpQ[5], b)
	}
	return z
}

func (z *Fp) smallerThanQ() bool {
	for i := 5; i >= 0; i-- {
		if z[i] < fpQ[i] {
			return true
		}
		if z[i] > fpQ[i] {
			return false
		}
	}
	return false
}
