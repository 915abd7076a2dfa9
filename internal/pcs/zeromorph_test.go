package pcs

import (
	"math/rand"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// TestZeromorphCommitMatchesTrapdoor exploits knowledge of τ: the
// univariate map means Commit(f) must equal [Σ f_i·τ^i]·G.
func TestZeromorphCommitMatchesTrapdoor(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	mu := 5
	tau := randFr(rng)
	srs := ZeromorphSetupWithTau(tau, mu)
	m := randMLE(rng, mu)
	c, err := srs.Commit(m)
	if err != nil {
		t.Fatal(err)
	}
	// Horner: U(f)(τ).
	var u ff.Fr
	for i := m.Len() - 1; i >= 0; i-- {
		u.Mul(&u, &tau)
		u.Add(&u, &m.Evals[i])
	}
	var g, want curve.G1Jac
	ga := curve.G1Generator()
	g.FromAffine(&ga)
	want.ScalarMul(&g, &u)
	var wantAff curve.G1Affine
	wantAff.FromJacobian(&want)
	if !c.P.Equal(&wantAff) {
		t.Fatal("commitment != [U(f)(tau)]G")
	}
}
