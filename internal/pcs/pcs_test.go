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

// TestCommitmentHomomorphism checks the additive homomorphism through
// VerifyWith: the opening of α·a + β·b verifies against (ca, cb) with
// coefficients (α, β), and not with either coefficient changed.
func TestCommitmentHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	mu := 4
	srs := SetupFromSeed([]byte("pcs-test"), mu)
	a := randMLE(rng, mu)
	b := randMLE(rng, mu)
	ca, _ := srs.Commit(a)
	cb, _ := srs.Commit(b)
	point := make([]ff.Fr, mu)
	for i := range point {
		point[i] = randFr(rng)
	}
	conformanceCombination(t, srs, []*poly.MLE{a, b}, []Commitment{ca, cb}, point, rng)
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

// TestSRSDigest: deterministic across rebuilds of the same ceremony,
// distinct across ceremonies and sizes.
func TestSRSDigest(t *testing.T) {
	a := SetupFromSeed([]byte("digest"), 4)
	b := SetupFromSeed([]byte("digest"), 4)
	if a.Digest() != b.Digest() {
		t.Fatal("same ceremony, different digest")
	}
	c := SetupFromSeed([]byte("digest2"), 4)
	if a.Digest() == c.Digest() {
		t.Fatal("different ceremony, same digest")
	}
	d := SetupFromSeed([]byte("digest"), 5)
	if a.Digest() == d.Digest() {
		t.Fatal("different mu, same digest")
	}
}

// TestOpenUnderAnyBudget is the pcs side of the one-budget rule: both
// backends hand the execution context's Procs to the MSM layer untouched
// (msmOptions; msm's TestOneBudgetRule pins that it then resolves like
// poly.Options), so a non-positive budget means every CPU for commitments
// and quotient folds alike, and openings are byte-identical and verify
// under every value.
func TestOpenUnderAnyBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	m := randMLE(rng, 4)
	point := make([]ff.Fr, 4)
	for i := range point {
		point[i] = ff.NewFr(rng.Uint64())
	}
	for _, scheme := range []Scheme{SchemePST, SchemeZeromorph} {
		backend, err := NewBackend(scheme, []byte("procs-open"), 4)
		if err != nil {
			t.Fatal(err)
		}
		c, err := backend.Commit(m)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := backend.Open(m, point)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{-1, 0, 1, 3, 64} {
			opt := poly.Options{Procs: procs}
			if mo := msmOptions(opt); !mo.Parallel || mo.Procs != procs {
				t.Fatalf("%v: budget %d reaches the MSM layer as %+v", scheme, procs, mo)
			}
			proof, val, err := backend.OpenWith(m, point, opt)
			if err != nil {
				t.Fatalf("%v procs=%d: %v", scheme, procs, err)
			}
			for i := range want.Quotients {
				if !proof.Quotients[i].Equal(&want.Quotients[i]) {
					t.Fatalf("%v procs=%d: quotient %d differs from the default opening", scheme, procs, i)
				}
			}
			ok, err := backend.Verify(c, point, val, proof)
			if err != nil || !ok {
				t.Fatalf("%v procs=%d: opening did not verify (ok=%v err=%v)", scheme, procs, ok, err)
			}
		}
	}
}
