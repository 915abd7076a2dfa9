package ff

import (
	"bytes"
	"math/big"
	"testing"
)

// Differential fuzzing of the unrolled field arithmetic against math/big.
// Each target derives two field elements from the raw fuzz input (reduced
// mod the modulus, so every byte string is a valid case), runs the full
// operation set through the limb code — whichever path the build selected,
// assembly or pure Go — and checks every result against the big.Int model.
// CI runs these for a short smoke window on every push; locally:
//
//	go test ./internal/ff -run '^$' -fuzz '^FuzzFrArith$' -fuzztime 30s

func FuzzFrArith(f *testing.F) {
	f.Add(make([]byte, 64))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	seed := append([]byte{1}, make([]byte, 62)...)
	f.Add(append(seed, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		aBig := new(big.Int).Mod(new(big.Int).SetBytes(data[:32]), frModulus)
		bBig := new(big.Int).Mod(new(big.Int).SetBytes(data[32:64]), frModulus)
		var a, b Fr
		a.SetBigInt(aBig)
		b.SetBigInt(bBig)

		check := func(op string, got *Fr, want *big.Int) {
			t.Helper()
			if got.BigInt().Cmp(want) != 0 {
				t.Fatalf("%s mismatch: a=%s b=%s got=%s want=%s",
					op, aBig, bBig, got.BigInt(), want)
			}
		}
		mod := func(v *big.Int) *big.Int { return v.Mod(v, frModulus) }

		var z Fr
		check("mul", z.Mul(&a, &b), mod(new(big.Int).Mul(aBig, bBig)))
		check("square", z.Square(&a), mod(new(big.Int).Mul(aBig, aBig)))
		check("add", z.Add(&a, &b), mod(new(big.Int).Add(aBig, bBig)))
		check("sub", z.Sub(&a, &b), mod(new(big.Int).Sub(aBig, bBig)))
		check("neg", z.Neg(&a), mod(new(big.Int).Neg(aBig)))
		check("double", z.Double(&a), mod(new(big.Int).Lsh(aBig, 1)))
		check("halve", z.Halve(&a), mod(new(big.Int).Mul(aBig,
			new(big.Int).ModInverse(big.NewInt(2), frModulus))))
		wantInv := new(big.Int)
		if aBig.Sign() != 0 {
			wantInv.ModInverse(aBig, frModulus)
		}
		check("inverse", z.Inverse(&a), wantInv)

		// Set256BE must agree with the big.Int reduction of the same bytes.
		var raw [32]byte
		copy(raw[:], data[:32])
		var viaSqueeze Fr
		viaSqueeze.Set256BE(&raw)
		check("set256be", &viaSqueeze,
			new(big.Int).Mod(new(big.Int).SetBytes(raw[:]), frModulus))
	})
}

// FuzzFrSetCanonicalBytes checks the untrusted-input decoder against
// math/big: it accepts a 32-byte string exactly when its value is below r,
// and what it accepts encodes back to the same bytes.
func FuzzFrSetCanonicalBytes(f *testing.F) {
	f.Add(make([]byte, FrBytes))
	f.Add(frModulus.FillBytes(make([]byte, FrBytes)))
	f.Add(new(big.Int).Sub(frModulus, big.NewInt(1)).FillBytes(make([]byte, FrBytes)))
	f.Add(bytes.Repeat([]byte{0xff}, FrBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < FrBytes {
			return
		}
		buf := data[:FrBytes]
		var z Fr
		ok := z.SetCanonicalBytes(buf)
		if want := new(big.Int).SetBytes(buf).Cmp(frModulus) < 0; ok != want {
			t.Fatalf("SetCanonicalBytes(%x) = %v, want %v", buf, ok, want)
		}
		if !ok {
			if !z.IsZero() {
				t.Fatalf("rejected %x but left %v", buf, z)
			}
			return
		}
		if back := z.Bytes(); !bytes.Equal(back[:], buf) {
			t.Fatalf("accepted %x but encodes back as %x", buf, back)
		}
	})
}

func FuzzFpArith(f *testing.F) {
	f.Add(make([]byte, 96))
	f.Add(bytes.Repeat([]byte{0xff}, 96))
	// The inversion's edge inputs as a: 1, p−1, and the Montgomery
	// constants R and R² (whose limbs are 1 and R³ mod p).
	r := new(big.Int).Lsh(big.NewInt(1), 384)
	for _, v := range []*big.Int{
		big.NewInt(1),
		new(big.Int).Sub(fpModulus, big.NewInt(1)),
		new(big.Int).Mod(r, fpModulus),
		new(big.Int).Mod(new(big.Int).Mul(r, r), fpModulus),
	} {
		f.Add(append(v.FillBytes(make([]byte, 48)), make([]byte, 48)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 96 {
			return
		}
		aBig := new(big.Int).Mod(new(big.Int).SetBytes(data[:48]), fpModulus)
		bBig := new(big.Int).Mod(new(big.Int).SetBytes(data[48:96]), fpModulus)
		var a, b Fp
		a.SetBigInt(aBig)
		b.SetBigInt(bBig)

		check := func(op string, got *Fp, want *big.Int) {
			t.Helper()
			if got.BigInt().Cmp(want) != 0 {
				t.Fatalf("%s mismatch: a=%s b=%s got=%s want=%s",
					op, aBig, bBig, got.BigInt(), want)
			}
		}
		mod := func(v *big.Int) *big.Int { return v.Mod(v, fpModulus) }

		var z Fp
		check("mul", z.Mul(&a, &b), mod(new(big.Int).Mul(aBig, bBig)))
		check("square", z.Square(&a), mod(new(big.Int).Mul(aBig, aBig)))
		check("add", z.Add(&a, &b), mod(new(big.Int).Add(aBig, bBig)))
		check("sub", z.Sub(&a, &b), mod(new(big.Int).Sub(aBig, bBig)))
		check("neg", z.Neg(&a), mod(new(big.Int).Neg(aBig)))
		check("double", z.Double(&a), mod(new(big.Int).Lsh(aBig, 1)))
		wantInv := new(big.Int)
		if aBig.Sign() != 0 {
			wantInv.ModInverse(aBig, fpModulus)
		}
		check("inverse", z.Inverse(&a), wantInv)
	})
}
