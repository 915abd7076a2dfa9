package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

// Path-agreement tests: the dispatched Mul/Square (assembly on capable
// amd64, unrolled pure Go elsewhere), the generic unrolled code called
// directly, and the retained looped baseline must agree bit-for-bit on
// random inputs and on the boundary values where carry chains are most
// likely to diverge. Run with and without -tags purego, the same cases
// exercise every implementation pair.

// frEdgeCases returns field elements whose limb patterns stress the
// arithmetic: 0, 1, q-1 (all subtractions borrow), R mod q (Montgomery
// one), R^2 mod q, the GLV eigenvalue λ, and 2^255-ish values with dense
// high limbs.
func frEdgeCases() []Fr {
	var qm1, lam, big255 Fr
	qm1.SetBigInt(new(big.Int).Sub(frModulus, big.NewInt(1)))
	lam.SetBigInt(GLVLambda())
	big255.SetBigInt(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(1)))
	return []Fr{{}, frOne, qm1, frRSquare, lam, big255}
}

func fpEdgeCases() []Fp {
	var one, qm1, big380 Fp
	one.SetOne()
	qm1.SetBigInt(new(big.Int).Sub(fpModulus, big.NewInt(1)))
	big380.SetBigInt(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 380), big.NewInt(1)))
	return []Fp{{}, one, qm1, fpRSquare, big380}
}

func TestFrMulPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cases := frEdgeCases()
	for i := 0; i < 500; i++ {
		cases = append(cases, randFr(rng))
	}
	for i, a := range cases {
		for j, b := range cases {
			var viaDispatch, viaGeneric, viaBaseline Fr
			viaDispatch.Mul(&a, &b)
			frMulGeneric(&viaGeneric, &a, &b)
			FrMulBaseline(&viaBaseline, &a, &b)
			if viaDispatch != viaGeneric {
				t.Fatalf("case (%d,%d): dispatch %v != generic %v", i, j, viaDispatch, viaGeneric)
			}
			if viaDispatch != viaBaseline {
				t.Fatalf("case (%d,%d): dispatch %v != baseline %v", i, j, viaDispatch, viaBaseline)
			}
		}
	}
}

func TestFrSquarePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	cases := frEdgeCases()
	for i := 0; i < 2000; i++ {
		cases = append(cases, randFr(rng))
	}
	for i, a := range cases {
		var viaSquare, viaGeneric, viaMul Fr
		viaSquare.Square(&a)
		frSquareGeneric(&viaGeneric, &a)
		FrMulBaseline(&viaMul, &a, &a)
		if viaSquare != viaGeneric {
			t.Fatalf("case %d: Square %v != generic square %v (input %v)", i, viaSquare, viaGeneric, a)
		}
		if viaSquare != viaMul {
			t.Fatalf("case %d: Square %v != baseline mul %v (input %v)", i, viaSquare, viaMul, a)
		}
	}
}

func TestFpMulPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	cases := fpEdgeCases()
	for i := 0; i < 300; i++ {
		cases = append(cases, randFp(rng))
	}
	for i, a := range cases {
		for j, b := range cases {
			var viaDispatch, viaGeneric, viaBaseline Fp
			viaDispatch.Mul(&a, &b)
			fpMulGeneric(&viaGeneric, &a, &b)
			FpMulBaseline(&viaBaseline, &a, &b)
			if viaDispatch != viaGeneric {
				t.Fatalf("case (%d,%d): dispatch %v != generic %v", i, j, viaDispatch, viaGeneric)
			}
			if viaDispatch != viaBaseline {
				t.Fatalf("case (%d,%d): dispatch %v != baseline %v", i, j, viaDispatch, viaBaseline)
			}
		}
	}
}

func TestFpSquarePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	cases := fpEdgeCases()
	for i := 0; i < 2000; i++ {
		cases = append(cases, randFp(rng))
	}
	for i, a := range cases {
		var viaSquare, viaGeneric, viaMul Fp
		viaSquare.Square(&a)
		fpSquareGeneric(&viaGeneric, &a)
		FpMulBaseline(&viaMul, &a, &a)
		if viaSquare != viaGeneric {
			t.Fatalf("case %d: Square %v != generic square %v (input %v)", i, viaSquare, viaGeneric, a)
		}
		if viaSquare != viaMul {
			t.Fatalf("case %d: Square %v != baseline mul %v (input %v)", i, viaSquare, viaMul, a)
		}
	}
}

// Mul and Square must tolerate full aliasing (z == x == y): the assembly
// writes z only after both operands are consumed, the generic code works
// in locals.
func TestFrMulAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for i := 0; i < 200; i++ {
		a := randFr(rng)
		want := new(big.Int).Mul(a.BigInt(), a.BigInt())
		want.Mod(want, frModulus)
		z := a
		z.Mul(&z, &z)
		if z.BigInt().Cmp(want) != 0 {
			t.Fatalf("aliased z.Mul(&z,&z) wrong on %s", a.String())
		}
		z = a
		z.Square(&z)
		if z.BigInt().Cmp(want) != 0 {
			t.Fatalf("aliased z.Square(&z) wrong on %s", a.String())
		}
	}
}

func TestFpMulAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for i := 0; i < 200; i++ {
		a := randFp(rng)
		want := new(big.Int).Mul(a.BigInt(), a.BigInt())
		want.Mod(want, fpModulus)
		z := a
		z.Mul(&z, &z)
		if z.BigInt().Cmp(want) != 0 {
			t.Fatalf("aliased z.Mul(&z,&z) wrong on %s", a.String())
		}
		z = a
		z.Square(&z)
		if z.BigInt().Cmp(want) != 0 {
			t.Fatalf("aliased z.Square(&z) wrong on %s", a.String())
		}
	}
}

// The branchless Neg/Double/reduce rewrites must preserve boundary
// behaviour: Neg(0) == 0 (not q), Double(q-1) wraps correctly, and values
// just below/above q reduce right.
func TestFrBranchlessBoundaries(t *testing.T) {
	var z Fr
	if !z.Neg(&Fr{}).IsZero() {
		t.Fatal("Neg(0) != 0")
	}
	var qm1, two Fr
	qm1.SetBigInt(new(big.Int).Sub(frModulus, big.NewInt(1)))
	two.SetUint64(2)
	var got, want Fr
	got.Double(&qm1)
	want.Mul(&qm1, &two)
	if got != want {
		t.Fatalf("Double(q-1) = %s, want %s", got.String(), want.String())
	}
	if g, w := got.BigInt(), new(big.Int).Sub(frModulus, big.NewInt(2)); g.Cmp(w) != 0 {
		t.Fatalf("Double(q-1) = %s, want q-2", g)
	}
}

func TestFpBranchlessBoundaries(t *testing.T) {
	var z Fp
	if !z.Neg(&Fp{}).IsZero() {
		t.Fatal("Neg(0) != 0")
	}
	var qm1, two Fp
	qm1.SetBigInt(new(big.Int).Sub(fpModulus, big.NewInt(1)))
	two.SetUint64(2)
	var got, want Fp
	got.Double(&qm1)
	want.Mul(&qm1, &two)
	if got != want {
		t.Fatalf("Double(p-1) = %s, want %s", got.String(), want.String())
	}
	if g, w := got.BigInt(), new(big.Int).Sub(fpModulus, big.NewInt(2)); g.Cmp(w) != 0 {
		t.Fatalf("Double(p-1) = %s, want p-2", g)
	}
}

// The windowed Fermat ladder must agree with math/big's ModInverse.
func TestFrInverseLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cases := frEdgeCases()
	for i := 0; i < 100; i++ {
		cases = append(cases, randFr(rng))
	}
	for i, a := range cases {
		var got, want Fr
		got.Inverse(&a)
		if x := a.BigInt(); x.Sign() != 0 {
			want.SetBigInt(new(big.Int).ModInverse(x, frModulus))
		}
		if got != want {
			t.Fatalf("case %d: Inverse(%s) = %s, want %s", i, a.String(), got.String(), want.String())
		}
	}
}

func TestFrInverseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	x := randFr(rng)
	var out Fr
	if avg := testing.AllocsPerRun(20, func() { out.Inverse(&x) }); avg != 0 {
		t.Fatalf("Inverse allocates %.1f times per call, want 0", avg)
	}
}

// TestFpInverseLadder: the binary GCD agrees with the Fermat ladder
// x^(p−2), computed by Exp, and x·Inverse(x) = 1 for every nonzero x.
func TestFpInverseLadder(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	pMinus2 := new(big.Int).Sub(fpModulus, big.NewInt(2))
	for i, a := range fpInverseCases(rng, 30) {
		var got, viaLadder Fp
		got.Inverse(&a)
		viaLadder.Exp(&a, pMinus2)
		if got != viaLadder {
			t.Fatalf("case %d: Inverse %s != x^(p-2) %s (input %s)",
				i, got.String(), viaLadder.String(), a.String())
		}
		if !a.IsZero() {
			var prod Fp
			prod.Mul(&a, &got)
			if !prod.IsOne() {
				t.Fatalf("case %d: x * Inverse(x) != 1", i)
			}
		}
	}
}

func TestFpInverseAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	x := randFp(rng)
	var out Fp
	if avg := testing.AllocsPerRun(20, func() { out.Inverse(&x) }); avg != 0 {
		t.Fatalf("Inverse allocates %.1f times per call, want 0", avg)
	}
}
