package ff

import (
	"math/big"
	"math/rand"
	"testing"
)

func randFp(rng *rand.Rand) Fp {
	v := new(big.Int).Rand(rng, fpModulus)
	var e Fp
	e.SetBigInt(v)
	return e
}

func TestFpConstants(t *testing.T) {
	if fpModulus.BitLen() != 381 {
		t.Fatalf("p bit length = %d, want 381", fpModulus.BitLen())
	}
	if fpQInvNeg*fpQ[0] != ^uint64(0) {
		t.Fatalf("fp qInvNeg wrong")
	}
}

func TestFpMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		a, b := randFp(rng), randFp(rng)
		var c Fp
		c.Mul(&a, &b)
		want := new(big.Int).Mul(a.BigInt(), b.BigInt())
		want.Mod(want, fpModulus)
		if c.BigInt().Cmp(want) != 0 {
			t.Fatalf("iter %d: fp mul mismatch", i)
		}
	}
}

func TestFpAddSubNegAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		a, b := randFp(rng), randFp(rng)
		var s, d, n Fp
		s.Add(&a, &b)
		d.Sub(&a, &b)
		n.Neg(&a)
		wantS := new(big.Int).Add(a.BigInt(), b.BigInt())
		wantS.Mod(wantS, fpModulus)
		wantD := new(big.Int).Sub(a.BigInt(), b.BigInt())
		wantD.Mod(wantD, fpModulus)
		wantN := new(big.Int).Neg(a.BigInt())
		wantN.Mod(wantN, fpModulus)
		if s.BigInt().Cmp(wantS) != 0 || d.BigInt().Cmp(wantD) != 0 || n.BigInt().Cmp(wantN) != 0 {
			t.Fatalf("fp add/sub/neg mismatch at %d", i)
		}
	}
}

func TestFpInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		a := randFp(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod Fp
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatalf("fp a*a^-1 != 1")
		}
	}
}

func TestFpSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	found := 0
	for i := 0; i < 40; i++ {
		a := randFp(rng)
		var sq Fp
		sq.Square(&a)
		var root Fp
		if !root.Sqrt(&sq) {
			t.Fatal("square should have a root")
		}
		var chk Fp
		chk.Square(&root)
		if !chk.Equal(&sq) {
			t.Fatal("sqrt wrong")
		}
		found++
	}
	if found == 0 {
		t.Fatal("no squares tested")
	}
}

func TestFpEdgeValues(t *testing.T) {
	pm1 := new(big.Int).Sub(fpModulus, big.NewInt(1))
	var a, one, c Fp
	a.SetBigInt(pm1)
	one.SetOne()
	c.Add(&a, &one)
	if !c.IsZero() {
		t.Fatal("(p-1)+1 != 0")
	}
	c.Mul(&a, &a)
	if !c.IsOne() {
		t.Fatal("(p-1)² != 1")
	}
}

func TestFpHexAndBytes(t *testing.T) {
	var g Fp
	g.SetHex("17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb")
	b := g.Bytes()
	var back Fp
	back.SetBigInt(new(big.Int).SetBytes(b[:]))
	if !back.Equal(&g) {
		t.Fatal("fp bytes round trip failed")
	}
}

func BenchmarkFpMul(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	x, y := randFp(rng), randFp(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

// TestFpBatchInverse: matches per-element Inverse on mixed inputs (zeros
// included), in the aliasing, non-aliasing and scratch-provided shapes.
func TestFpBatchInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{0, 1, 2, 3, 17, 64, 100} {
		in := make([]Fp, n)
		for i := range in {
			switch i % 5 {
			case 3:
				// leave zero
			case 4:
				in[i].SetOne()
			default:
				in[i] = randFp(rng)
			}
		}
		want := make([]Fp, n)
		for i := range in {
			want[i].Inverse(&in[i])
		}
		out := make([]Fp, n)
		BatchInverse(out, in, nil)
		for i := range out {
			if !out[i].Equal(&want[i]) {
				t.Fatalf("n=%d i=%d: batch inverse mismatch", n, i)
			}
		}
		// with caller scratch
		scratch := make([]Fp, n)
		out2 := make([]Fp, n)
		BatchInverse(out2, in, scratch)
		for i := range out2 {
			if !out2[i].Equal(&want[i]) {
				t.Fatalf("n=%d i=%d: scratch batch inverse mismatch", n, i)
			}
		}
		// aliased in-place
		work := make([]Fp, n)
		copy(work, in)
		BatchInverse(work, work, scratch)
		for i := range work {
			if !work[i].Equal(&want[i]) {
				t.Fatalf("n=%d i=%d: aliased batch inverse mismatch", n, i)
			}
		}
	}
}

func TestFpSetCanonicalBytes(t *testing.T) {
	p := FpModulusBig()
	enc := func(v *big.Int) []byte { return v.FillBytes(make([]byte, FpBytes)) }
	max := new(big.Int).Lsh(big.NewInt(1), 8*FpBytes)
	max.Sub(max, big.NewInt(1))
	for _, c := range []struct {
		v  *big.Int
		ok bool
	}{
		{big.NewInt(0), true},
		{big.NewInt(1), true},
		{new(big.Int).Sub(p, big.NewInt(1)), true},
		{p, false},
		{new(big.Int).Add(p, big.NewInt(1)), false},
		{max, false},
	} {
		var z, want Fp
		z.SetOne()
		if got := z.SetCanonicalBytes(enc(c.v)); got != c.ok {
			t.Fatalf("SetCanonicalBytes(%v) = %v, want %v", c.v, got, c.ok)
		}
		if c.ok {
			want.SetBigInt(c.v)
		}
		if !z.Equal(&want) {
			t.Fatalf("SetCanonicalBytes(%v) left %v", c.v, z)
		}
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		a := randFp(rng)
		b := a.Bytes()
		var back Fp
		if !back.SetCanonicalBytes(b[:]) || !back.Equal(&a) {
			t.Fatal("SetCanonicalBytes does not invert Bytes")
		}
	}
}
