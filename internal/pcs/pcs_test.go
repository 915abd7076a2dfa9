package pcs

import (
	"math/big"
	"math/rand"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
)

func randFr(rng *rand.Rand) ff.Fr {
	v := new(big.Int).Rand(rng, ff.FrModulusBig())
	var e ff.Fr
	e.SetBigInt(v)
	return e
}

func randMLE(rng *rand.Rand, nv int) *poly.MLE {
	evals := make([]ff.Fr, 1<<nv)
	for i := range evals {
		evals[i] = randFr(rng)
	}
	return poly.NewMLE(evals)
}

// TestCommitMatchesTrapdoor exploits knowledge of τ: Commit(f) must equal
// [f(τ)]·G.
func TestCommitMatchesTrapdoor(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	mu := 5
	taus := make([]ff.Fr, mu)
	for i := range taus {
		taus[i] = randFr(rng)
	}
	srs := SetupWithTaus(taus)
	m := randMLE(rng, mu)
	c, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}
	fTau := m.Evaluate(taus)
	var g, want curve.G1Jac
	ga := curve.G1Generator()
	g.FromAffine(&ga)
	want.ScalarMul(&g, &fTau)
	var wantAff curve.G1Affine
	wantAff.FromJacobian(&want)
	if !c.P.Equal(&wantAff) {
		t.Fatal("commitment != [f(tau)]G")
	}
}

func TestSparseCommitMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	mu := 5
	srs := SetupFromSeed([]byte("pcs-test"), mu)
	evals := make([]ff.Fr, 1<<mu)
	for i := range evals {
		switch {
		case i%10 < 4:
		case i%10 < 9:
			evals[i].SetOne()
		default:
			evals[i] = randFr(rng)
		}
	}
	m := poly.NewMLE(evals)
	dense, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := srs.CommitSparse(m)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.P.Equal(&sparse.P) {
		t.Fatal("sparse and dense commitments disagree")
	}
}

func TestOpenVerifyRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing verification is slow")
	}
	rng := rand.New(rand.NewSource(73))
	mu := 4
	srs := SetupFromSeed([]byte("pcs-test"), mu)
	m := randMLE(rng, mu)
	c, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}
	point := make([]ff.Fr, mu)
	for i := range point {
		point[i] = randFr(rng)
	}
	proof, value, err := srs.Open(m, point)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Evaluate(point)
	if !value.Equal(&want) {
		t.Fatal("opening value wrong")
	}
	ok, err := srs.Verify(c, point, value, proof)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid opening rejected")
	}

	// Wrong value must be rejected.
	var bad ff.Fr
	bad.SetOne()
	bad.Add(&value, &bad)
	ok, err = srs.Verify(c, point, bad, proof)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong value accepted")
	}

	// Wrong point must be rejected.
	point2 := append([]ff.Fr(nil), point...)
	point2[0] = randFr(rng)
	ok, err = srs.Verify(c, point2, value, proof)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("wrong point accepted")
	}

	// Tampered quotient must be rejected.
	proof.Quotients[1] = curve.G1Generator()
	ok, err = srs.Verify(c, point, value, proof)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("tampered proof accepted")
	}
}

func TestCommitmentHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	mu := 4
	srs := SetupFromSeed([]byte("pcs-test"), mu)
	a := randMLE(rng, mu)
	b := randMLE(rng, mu)
	ca, _ := srs.Commit(a)
	cb, _ := srs.Commit(b)
	alpha, beta := randFr(rng), randFr(rng)
	combo := CombineCommitments([]Commitment{ca, cb}, []ff.Fr{alpha, beta})
	lc := poly.LinearCombine([]*poly.MLE{a, b}, []ff.Fr{alpha, beta})
	want, _ := srs.Commit(lc)
	if !combo.P.Equal(&want.P) {
		t.Fatal("commitment homomorphism violated")
	}
}

func TestOpenAtBooleanPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing verification is slow")
	}
	// Opening at a hypercube corner must reveal exactly the table entry —
	// the fixed opening points of the protocol (pt_root, §3.3.4) are of
	// this form.
	rng := rand.New(rand.NewSource(78))
	mu := 3
	srs := SetupFromSeed([]byte("pcs-test"), mu)
	m := randMLE(rng, mu)
	c, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}
	point := make([]ff.Fr, mu) // corner (0,1,1) → index 6
	point[1].SetOne()
	point[2].SetOne()
	proof, value, err := srs.Open(m, point)
	if err != nil {
		t.Fatal(err)
	}
	if !value.Equal(&m.Evals[6]) {
		t.Fatal("boolean-point opening is not the table entry")
	}
	ok, err := srs.Verify(c, point, value, proof)
	if err != nil || !ok {
		t.Fatalf("boolean-point opening rejected: %v", err)
	}
}

func TestOpenDimensionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	srs := SetupFromSeed([]byte("pcs-test"), 3)
	m := randMLE(rng, 2)
	if _, err := srs.Commit(m); err == nil {
		t.Fatal("commit should reject wrong dimension")
	}
	m3 := randMLE(rng, 3)
	if _, _, err := srs.Open(m3, make([]ff.Fr, 2)); err == nil {
		t.Fatal("open should reject wrong point size")
	}
	if _, err := srs.Verify(Commitment{}, make([]ff.Fr, 2), ff.Fr{}, OpeningProof{Quotients: make([]curve.G1Affine, 3)}); err == nil {
		t.Fatal("verify should reject wrong point size")
	}
}

func BenchmarkCommit256(b *testing.B) {
	rng := rand.New(rand.NewSource(76))
	srs := SetupFromSeed([]byte("pcs-test"), 8)
	m := randMLE(rng, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srs.Commit(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen256(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	srs := SetupFromSeed([]byte("pcs-test"), 8)
	m := randMLE(rng, 8)
	point := make([]ff.Fr, 8)
	for i := range point {
		point[i] = randFr(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := srs.Open(m, point); err != nil {
			b.Fatal(err)
		}
	}
}
