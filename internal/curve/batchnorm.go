package curve

import "zkspeed/internal/ff"

// BatchNormalizeJac converts Jacobian points to affine sharing a single
// field inversion across the whole slice (Montgomery's trick), instead of
// the one-inversion-per-point cost of FromJacobian. The generator window
// table (msm.MulGenerator) normalizes its window multiples at once, where
// per-point inversions would dominate the build.
//
// Z == 0 inputs (infinity) come out as affine infinity: ff.BatchInverse
// maps zero to zero, which is detected per point below. out must be at
// least len(in) long; in is not modified.
func BatchNormalizeJac(out []G1Affine, in []G1Jac) {
	n := len(in)
	if len(out) < n {
		panic("curve: BatchNormalizeJac output too short")
	}
	if n == 0 {
		return
	}
	zinv := make([]ff.Fp, n)
	scratch := make([]ff.Fp, n)
	for i := 0; i < n; i++ {
		zinv[i] = in[i].Z
	}
	ff.BatchInverse(zinv, zinv, scratch)
	var zinv2, zinv3 ff.Fp
	for i := 0; i < n; i++ {
		if zinv[i].IsZero() {
			out[i] = G1Affine{Inf: true}
			continue
		}
		zinv2.Square(&zinv[i])
		zinv3.Mul(&zinv2, &zinv[i])
		out[i].X.Mul(&in[i].X, &zinv2)
		out[i].Y.Mul(&in[i].Y, &zinv3)
		out[i].Inf = false
	}
}
