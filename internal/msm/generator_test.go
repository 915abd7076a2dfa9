package msm

import (
	"math/big"
	"math/rand"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// TestMulGeneratorMatchesScalarMul: the window-table kernel against
// double-and-add on the scalars that stress the signed recoding (0, 1,
// r−1, all-ones digits, single bits at every window boundary) plus random
// ones, over more than one chunk.
func TestMulGeneratorMatchesScalarMul(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	var scalars []ff.Fr
	add := func(v *big.Int) {
		var s ff.Fr
		s.SetBigInt(v)
		scalars = append(scalars, s)
	}
	add(big.NewInt(0))
	add(big.NewInt(1))
	add(new(big.Int).Sub(ff.FrModulusBig(), big.NewInt(1)))
	for w := 0; w < genWindows; w++ {
		bit := new(big.Int).Lsh(big.NewInt(1), uint(w*genWindow))
		add(bit)                                          // lowest bit of window w
		add(new(big.Int).Sub(bit, big.NewInt(1)))         // every digit below it saturated: carries ripple up
		add(new(big.Int).Lsh(bit, genWindow-1))           // 2^(c-1): the digit that recodes to −2^(c-1) plus a carry
		add(new(big.Int).Rsh(ff.FrModulusBig(), uint(w))) // dense high bits
	}
	for len(scalars) < 2*genChunk+37 {
		scalars = append(scalars, randFr(rng))
	}
	got := MulGenerator(scalars)
	g := curve.G1Generator()
	var gJac, p curve.G1Jac
	gJac.FromAffine(&g)
	for i := range scalars {
		// Full oracle on the structured prefix and a sample of the rest.
		if i > 4*genWindows+3 && i%16 != 0 {
			continue
		}
		var want curve.G1Affine
		want.FromJacobian(p.ScalarMul(&gJac, &scalars[i]))
		if got[i] != want {
			t.Fatalf("scalar %d (%s): MulGenerator differs from ScalarMul", i, scalars[i].String())
		}
	}
}

// TestSumPairs covers the addition cases a Lagrange layer can contain:
// generic, either or both points at infinity, equal points (doubling) and
// opposite points (cancellation), across a chunk boundary.
func TestSumPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	n := genChunk + 9
	pts := randPoints(rng, 2*n)
	inf := curve.G1Infinity()
	pts[0] = inf                              // ∞ + P
	pts[3] = inf                              // P + ∞
	pts[4], pts[5] = inf, inf                 // ∞ + ∞
	pts[7] = pts[6]                           // P + P
	pts[9].Neg(&pts[8])                       // P + (−P)
	pts[2*genChunk+1] = pts[2*genChunk]       // doubling in the second chunk
	pts[2*genChunk+3].Neg(&pts[2*genChunk+2]) // cancellation in the second chunk
	got := SumPairs(pts)
	if len(got) != n {
		t.Fatalf("%d sums for %d points", len(got), len(pts))
	}
	for i := range got {
		var a, b curve.G1Jac
		a.FromAffine(&pts[2*i])
		b.FromAffine(&pts[2*i+1])
		var want curve.G1Affine
		want.FromJacobian(a.Add(&a, &b))
		if got[i] != want {
			t.Fatalf("pair %d: SumPairs differs from Jacobian addition", i)
		}
	}
}
