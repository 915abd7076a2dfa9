package ff

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randFr(rng *rand.Rand) Fr {
	v := new(big.Int).Rand(rng, frModulus)
	var e Fr
	e.SetBigInt(v)
	return e
}

// frGen adapts randFr to testing/quick.
type frPair struct{ A, B Fr }

func (frPair) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(frPair{randFr(rng), randFr(rng)})
}

func TestFrConstants(t *testing.T) {
	if frModulus.BitLen() != FrBits {
		t.Fatalf("modulus bit length = %d, want %d", frModulus.BitLen(), FrBits)
	}
	// qInvNeg * q ≡ -1 (mod 2^64)
	if frQInvNeg*frQ[0] != ^uint64(0) {
		t.Fatalf("qInvNeg is wrong: %x", frQInvNeg)
	}
	var one Fr
	one.SetUint64(1)
	if !one.Equal(&frOne) {
		t.Fatal("SetUint64(1) != one")
	}
	if one.BigInt().Cmp(big.NewInt(1)) != 0 {
		t.Fatal("round-trip of 1 failed")
	}
}

// TestModuliFromCurveParameter derives both BLS12-381 moduli from the
// curve's generator x = -0xd201000000010000 (r = x⁴ - x² + 1 and
// p = (x-1)²·r/3 + x) instead of trusting the hex constants.
func TestModuliFromCurveParameter(t *testing.T) {
	x, _ := new(big.Int).SetString("-d201000000010000", 16)
	x2 := new(big.Int).Mul(x, x)
	r := new(big.Int).Mul(x2, x2)
	r.Sub(r, x2)
	r.Add(r, big.NewInt(1))
	xm1 := new(big.Int).Sub(x, big.NewInt(1))
	p := new(big.Int).Mul(xm1, xm1)
	p.Mul(p, r)
	if rem := new(big.Int).Mod(p, big.NewInt(3)); rem.Sign() != 0 {
		t.Fatalf("(x-1)²·r is not divisible by 3 (remainder %v)", rem)
	}
	p.Quo(p, big.NewInt(3))
	p.Add(p, x)
	if r.Cmp(FrModulusBig()) != 0 {
		t.Fatalf("r from x = %x, FrModulus = %x", r, FrModulusBig())
	}
	if p.Cmp(FpModulusBig()) != 0 {
		t.Fatalf("p from x = %x, FpModulus = %x", p, FpModulusBig())
	}
}

func TestFrMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randFr(rng), randFr(rng)
		var c Fr
		c.Mul(&a, &b)
		want := new(big.Int).Mul(a.BigInt(), b.BigInt())
		want.Mod(want, frModulus)
		if c.BigInt().Cmp(want) != 0 {
			t.Fatalf("iter %d: mul mismatch\n a=%s\n b=%s\n got=%s\n want=%s", i, a, b, c.BigInt(), want)
		}
	}
}

func TestFrAddSubAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := randFr(rng), randFr(rng)
		var s, d Fr
		s.Add(&a, &b)
		d.Sub(&a, &b)
		wantS := new(big.Int).Add(a.BigInt(), b.BigInt())
		wantS.Mod(wantS, frModulus)
		wantD := new(big.Int).Sub(a.BigInt(), b.BigInt())
		wantD.Mod(wantD, frModulus)
		if s.BigInt().Cmp(wantS) != 0 {
			t.Fatalf("add mismatch at %d", i)
		}
		if d.BigInt().Cmp(wantD) != 0 {
			t.Fatalf("sub mismatch at %d", i)
		}
	}
}

func TestFrEdgeValues(t *testing.T) {
	qm1 := new(big.Int).Sub(frModulus, big.NewInt(1))
	var a, b, c Fr
	a.SetBigInt(qm1) // q-1
	b.SetUint64(1)
	c.Add(&a, &b)
	if !c.IsZero() {
		t.Fatal("(q-1)+1 != 0")
	}
	c.Mul(&a, &a) // (q-1)² = 1
	if !c.IsOne() {
		t.Fatal("(q-1)² != 1")
	}
	c.Neg(&b)
	if c.BigInt().Cmp(qm1) != 0 {
		t.Fatal("-1 != q-1")
	}
	var z Fr
	c.Mul(&a, &z)
	if !c.IsZero() {
		t.Fatal("x*0 != 0")
	}
	c.Neg(&z)
	if !c.IsZero() {
		t.Fatal("-0 != 0")
	}
}

func TestFrFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	// commutativity and associativity of mul, distributivity
	if err := quick.Check(func(p frPair) bool {
		var ab, ba Fr
		ab.Mul(&p.A, &p.B)
		ba.Mul(&p.B, &p.A)
		return ab.Equal(&ba)
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(p, q frPair) bool {
		// (a*b)*c == a*(b*c)
		var l, r Fr
		l.Mul(&p.A, &p.B)
		l.Mul(&l, &q.A)
		r.Mul(&p.B, &q.A)
		r.Mul(&p.A, &r)
		return l.Equal(&r)
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(p, q frPair) bool {
		// a*(b+c) == a*b + a*c
		var s, l, r1, r2 Fr
		s.Add(&p.B, &q.A)
		l.Mul(&p.A, &s)
		r1.Mul(&p.A, &p.B)
		r2.Mul(&p.A, &q.A)
		r1.Add(&r1, &r2)
		return l.Equal(&r1)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestFrInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		a := randFr(rng)
		if a.IsZero() {
			continue
		}
		var inv, prod Fr
		inv.Inverse(&a)
		prod.Mul(&a, &inv)
		if !prod.IsOne() {
			t.Fatalf("a * a^-1 != 1 for a=%s", a)
		}
	}
	var z, iz Fr
	iz.Inverse(&z)
	if !iz.IsZero() {
		t.Fatal("Inverse(0) should be 0")
	}
}

func TestFrHalve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var two Fr
	two.SetUint64(2)
	for i := 0; i < 500; i++ {
		a := randFr(rng)
		var h, back Fr
		h.Halve(&a)
		back.Mul(&h, &two)
		if !back.Equal(&a) {
			t.Fatalf("2*(a/2) != a for a=%s", a)
		}
	}
}

func TestFrExp(t *testing.T) {
	var a Fr
	a.SetUint64(3)
	var got Fr
	got.Exp(&a, big.NewInt(5))
	var want Fr
	want.SetUint64(243)
	if !got.Equal(&want) {
		t.Fatalf("3^5 = %s, want 243", got)
	}
	// Fermat: a^(q-1) == 1
	var f Fr
	f.Exp(&a, new(big.Int).Sub(frModulus, big.NewInt(1)))
	if !f.IsOne() {
		t.Fatal("a^(q-1) != 1")
	}
}

func TestFrBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		a := randFr(rng)
		b := a.Bytes()
		var back Fr
		back.SetBytes(b[:])
		if !back.Equal(&a) {
			t.Fatalf("bytes round trip failed for %s", a)
		}
	}
}

func TestFrSetCanonicalBytes(t *testing.T) {
	enc := func(v *big.Int) []byte { return v.FillBytes(make([]byte, FrBytes)) }
	max := new(big.Int).Lsh(big.NewInt(1), 8*FrBytes)
	max.Sub(max, big.NewInt(1))
	for _, c := range []struct {
		v  *big.Int
		ok bool
	}{
		{big.NewInt(0), true},
		{big.NewInt(1), true},
		{new(big.Int).Sub(frModulus, big.NewInt(1)), true},
		{frModulus, false},
		{new(big.Int).Add(frModulus, big.NewInt(1)), false},
		{max, false},
	} {
		var z, want Fr
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
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 100; i++ {
		a := randFr(rng)
		b := a.Bytes()
		var back Fr
		if !back.SetCanonicalBytes(b[:]) || !back.Equal(&a) {
			t.Fatal("SetCanonicalBytes does not invert Bytes")
		}
	}
	b := enc(new(big.Int).Sub(frModulus, big.NewInt(2)))
	var out Fr
	if avg := testing.AllocsPerRun(100, func() { out.SetCanonicalBytes(b) }); avg != 0 {
		t.Fatalf("SetCanonicalBytes allocates %.1f objects per call, want 0", avg)
	}
}

func TestFrSetInt64(t *testing.T) {
	var a Fr
	a.SetInt64(-5)
	var b Fr
	b.SetUint64(5)
	b.Neg(&b)
	if !a.Equal(&b) {
		t.Fatal("SetInt64(-5) != -5")
	}
	a.SetInt64(7)
	if a.BigInt().Int64() != 7 {
		t.Fatal("SetInt64(7) != 7")
	}
}

func TestFrTextRoundTrip(t *testing.T) {
	var a Fr
	a.SetUint64(123456789)
	txt, err := a.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var b Fr
	if err := b.UnmarshalText(txt); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(&b) {
		t.Fatal("text round trip failed")
	}
	if err := b.UnmarshalText([]byte("not-a-number")); err == nil {
		t.Fatal("expected parse error")
	}
}

func BenchmarkFrMul(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x, y := randFr(rng), randFr(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

func BenchmarkFrAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x, y := randFr(rng), randFr(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Add(&x, &y)
	}
}

func BenchmarkFrInverse(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	x := randFr(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Inverse(&x)
	}
}

// TestFrSet256BEMatchesSetBytes: the transcript's allocation-free
// 256-bit reduction must agree with the big.Int route on random and
// boundary inputs (0, q-1, q, q+1, 2q, 2^256-1 — everything the two
// conditional subtractions must handle).
func TestFrSet256BEMatchesSetBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	check := func(v *big.Int) {
		var b [32]byte
		v.FillBytes(b[:])
		var got, want Fr
		got.Set256BE(&b)
		want.SetBytes(b[:])
		if !got.Equal(&want) {
			t.Fatalf("Set256BE mismatch for %v", v)
		}
	}
	one := big.NewInt(1)
	max := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	edges := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(frModulus, one),
		new(big.Int).Set(frModulus),
		new(big.Int).Add(frModulus, one),
		new(big.Int).Lsh(frModulus, 1),
		max,
	}
	for _, v := range edges {
		check(v)
	}
	for i := 0; i < 200; i++ {
		check(new(big.Int).Rand(rng, new(big.Int).Lsh(one, 256)))
	}
}

// TestFrSet256BEAllocFree pins the reason Set256BE exists.
func TestFrSet256BEAllocFree(t *testing.T) {
	var b [32]byte
	for i := range b {
		b[i] = byte(0xA7 ^ i)
	}
	var out Fr
	if avg := testing.AllocsPerRun(100, func() { out.Set256BE(&b) }); avg != 0 {
		t.Fatalf("Set256BE allocates %.1f objects per call, want 0", avg)
	}
}

func TestFrCanonicalLimbs(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	rm1 := new(big.Int).Sub(frModulus, big.NewInt(1))
	values := []*big.Int{big.NewInt(0), big.NewInt(1), new(big.Int).SetUint64(1 << 63), rm1}
	for i := 0; i < 50; i++ {
		values = append(values, new(big.Int).Rand(rng, frModulus))
	}
	for _, v := range values {
		var e Fr
		e.SetBigInt(v)
		l := e.CanonicalLimbs()
		for i := 0; i < 4; i++ {
			want := new(big.Int).Rsh(v, uint(64*i)).Uint64() // low 64 bits
			if l[i] != want {
				t.Fatalf("CanonicalLimbs(%v)[%d] = %#x, want %#x", v, i, l[i], want)
			}
		}
	}
}
