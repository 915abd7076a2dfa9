package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

// halfToBig reconstructs the signed integer of a half-scalar.
func halfToBig(h HalfScalar) *big.Int {
	v := new(big.Int).SetUint64(h.W[1])
	v.Lsh(v, 64)
	v.Or(v, new(big.Int).SetUint64(h.W[0]))
	if h.Neg {
		v.Neg(v)
	}
	return v
}

// glvSplitBig is the math/big Babai rounding GLVSplit replaced, kept as its
// oracle: ĉ₁ = round(k·x²/r) (half up), ĉ₂ = round(k/r), then
// (k₁, k₂) = (k − ĉ₁λ − ĉ₂, ĉ₁ − ĉ₂x²).
func glvSplitBig(kb *big.Int) (k1, k2 *big.Int) {
	c1 := new(big.Int).Mul(kb, glvX2)
	c1.Add(c1, new(big.Int).Rsh(frModulus, 1))
	c1.Div(c1, frModulus)
	c2 := big.NewInt(0)
	if new(big.Int).Lsh(kb, 1).Cmp(frModulus) >= 0 {
		c2.SetInt64(1)
	}
	k1 = new(big.Int).Mul(c1, glvLambda)
	k1.Sub(kb, k1)
	k1.Sub(k1, c2)
	k2 = new(big.Int).Mul(c2, glvX2)
	k2.Sub(c1, k2)
	return k1, k2
}

// glvCases are the scalars every split test runs: the boundaries of both
// roundings (0, 1, r−1, ⌊r/2⌋ and ⌊r/2⌋+1 for ĉ₂; λ and r−λ, which split
// to (0, ±1)) and n random scalars.
func glvCases(n int, seed int64) []*big.Int {
	rMod := FrModulusBig()
	lambda := GLVLambda()
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		new(big.Int).Sub(rMod, big.NewInt(1)),
		new(big.Int).Sub(rMod, big.NewInt(2)),
		new(big.Int).Rsh(rMod, 1),
		new(big.Int).Add(new(big.Int).Rsh(rMod, 1), big.NewInt(1)),
		new(big.Int).Set(lambda),
		new(big.Int).Sub(rMod, lambda),
		new(big.Int).Lsh(big.NewInt(1), 128),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 254), big.NewInt(1)),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		cases = append(cases, new(big.Int).Rand(rng, rMod))
	}
	return cases
}

// checkGLVSplit asserts the split of kb equals the oracle's, recombines to
// kb mod r and stays within the norm bound.
func checkGLVSplit(t *testing.T, kb *big.Int) {
	t.Helper()
	var k Fr
	k.SetBigInt(kb)
	k1, k2 := GLVSplit(&k)
	b1, b2 := halfToBig(k1), halfToBig(k2)
	if w1, w2 := glvSplitBig(new(big.Int).Mod(kb, frModulus)); b1.Cmp(w1) != 0 || b2.Cmp(w2) != 0 {
		t.Fatalf("k=%s: split (%s, %s), oracle (%s, %s)", kb, b1, b2, w1, w2)
	}
	if b1.BitLen() > GLVBits || b2.BitLen() > GLVBits {
		t.Fatalf("k=%s: half-scalar too wide (%d, %d bits)", kb, b1.BitLen(), b2.BitLen())
	}
	if (k1.Neg && k1.IsZero()) || (k2.Neg && k2.IsZero()) {
		t.Fatalf("k=%s: negative zero", kb)
	}
	got := new(big.Int).Mul(b2, glvLambda)
	got.Add(got, b1)
	got.Mod(got, frModulus)
	if want := new(big.Int).Mod(kb, frModulus); got.Cmp(want) != 0 {
		t.Fatalf("k=%s: k1+k2·λ = %s != k", kb, got)
	}
}

// TestGLVLambdaIsEigenvalue: λ² + λ + 1 ≡ 0 (mod r), the defining
// equation of the endomorphism eigenvalue.
func TestGLVLambdaIsEigenvalue(t *testing.T) {
	l := GLVLambda()
	v := new(big.Int).Mul(l, l)
	v.Add(v, l)
	v.Add(v, big.NewInt(1))
	v.Mod(v, FrModulusBig())
	if v.Sign() != 0 {
		t.Fatalf("λ²+λ+1 != 0 mod r (got %s)", v)
	}
}

// TestGLVSplit: k₁ + k₂λ ≡ k (mod r) and both halves stay within the
// 128-bit norm bound, across the boundary scalars and random ones.
func TestGLVSplit(t *testing.T) {
	for _, kb := range glvCases(200, 71) {
		checkGLVSplit(t, kb)
	}
}

// TestGLVSplitMatchesOracle: the limb split returns exactly the math/big
// rounding's halves on the boundary scalars and 10k random ones.
func TestGLVSplitMatchesOracle(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1000
	}
	for _, kb := range glvCases(n, 72) {
		checkGLVSplit(t, kb)
	}
}

// TestGLVSplitAllocs: the split runs on stack limbs only.
func TestGLVSplitAllocs(t *testing.T) {
	var k Fr
	k.SetBigInt(new(big.Int).Sub(FrModulusBig(), big.NewInt(3)))
	if a := testing.AllocsPerRun(100, func() { GLVSplit(&k) }); a != 0 {
		t.Fatalf("GLVSplit allocates %.1f times per call", a)
	}
}

// FuzzGLVSplit checks the limb split against the math/big oracle on
// arbitrary 32-byte scalars (reduced mod r).
//
//	go test ./internal/ff -run '^$' -fuzz '^FuzzGLVSplit$' -fuzztime 30s
func FuzzGLVSplit(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add(new(big.Int).Rsh(FrModulusBig(), 1).FillBytes(make([]byte, 32)))
	f.Add(GLVLambda().FillBytes(make([]byte, 32)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 32 {
			return
		}
		checkGLVSplit(t, new(big.Int).SetBytes(data[:32]))
	})
}

func BenchmarkGLVSplit(b *testing.B) {
	var k Fr
	k.SetBigInt(new(big.Int).Rand(rand.New(rand.NewSource(73)), FrModulusBig()))
	for i := 0; i < b.N; i++ {
		GLVSplit(&k)
	}
}
