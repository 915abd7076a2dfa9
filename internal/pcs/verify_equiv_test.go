package pcs

import (
	"fmt"
	"math/rand"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
)

// opening is everything a verifier is handed for one evaluation claim.
type opening struct {
	c     Commitment
	point []ff.Fr
	value ff.Fr
	proof OpeningProof
}

func (o *opening) clone() opening {
	out := *o
	out.point = append([]ff.Fr(nil), o.point...)
	out.proof.Quotients = append([]curve.G1Affine(nil), o.proof.Quotients...)
	return out
}

// mutation is one single-field change to an opening. ok is false where the
// change would be no change (e.g. swapping two equal quotients).
type mutation struct {
	name  string
	apply func(o *opening) (ok bool)
}

// addG returns p + G: another point of G1, so the decoder would pass it.
func addG(p *curve.G1Affine) curve.G1Affine {
	var j curve.G1Jac
	g := curve.G1Generator()
	j.FromAffine(p)
	j.AddMixed(&g)
	var out curve.G1Affine
	out.FromJacobian(&j)
	return out
}

func singleFieldMutations(mu, quotients int) []mutation {
	one := ff.FrOne()
	ms := []mutation{
		{"commitment", func(o *opening) bool { o.c.P = addG(&o.c.P); return true }},
		{"value", func(o *opening) bool { o.value.Add(&o.value, &one); return true }},
	}
	for k := 0; k < quotients; k++ {
		k := k
		ms = append(ms, mutation{fmt.Sprintf("quotient[%d]", k), func(o *opening) bool {
			o.proof.Quotients[k] = addG(&o.proof.Quotients[k])
			return true
		}})
	}
	for k := 0; k < mu; k++ {
		k := k
		ms = append(ms, mutation{fmt.Sprintf("point[%d]", k), func(o *opening) bool {
			o.point[k].Add(&o.point[k], &one)
			return true
		}})
	}
	for k := 0; k+1 < quotients; k++ {
		k := k
		ms = append(ms, mutation{fmt.Sprintf("swap quotients %d,%d", k, k+1), func(o *opening) bool {
			q := o.proof.Quotients
			if q[k].Equal(&q[k+1]) {
				return false
			}
			q[k], q[k+1] = q[k+1], q[k]
			return true
		}})
	}
	return ms
}

// checkVerifierEquivalence asserts that the G1-side verifier (now) and the
// G2-side oracle (before) accept the valid opening and reject every
// single-field mutation of it. An error counts as a rejection.
func checkVerifierEquivalence(t *testing.T, valid opening, ms []mutation, now, before func(o *opening) (bool, error)) {
	t.Helper()
	run := func(name string, o *opening, want bool) {
		t.Helper()
		gotNow, errNow := now(o)
		gotBefore, errBefore := before(o)
		if want && (errNow != nil || errBefore != nil) {
			t.Fatalf("%s: errors now=%v before=%v", name, errNow, errBefore)
		}
		if (gotNow && errNow == nil) != want {
			t.Fatalf("%s: Verify accepts=%v (err %v), want %v", name, gotNow, errNow, want)
		}
		if (gotBefore && errBefore == nil) != want {
			t.Fatalf("%s: G2-side oracle accepts=%v (err %v), want %v", name, gotBefore, errBefore, want)
		}
	}
	run("valid", &valid, true)
	for _, m := range ms {
		o := valid.clone()
		if m.apply(&o) {
			run(m.name, &o, false)
		}
	}
}

func TestVerifyMatchesG2SideOracle(t *testing.T) {
	for mu := 1; mu <= 8; mu++ {
		mu := mu
		t.Run(fmt.Sprintf("pst/mu%d", mu), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + mu)))
			srs := SetupFromSeed([]byte{0xe0, byte(mu)}, mu)
			m := randMLE(rng, mu)
			var err error
			var o opening
			if o.c, err = srs.Commit(m); err != nil {
				t.Fatal(err)
			}
			o.point = make([]ff.Fr, mu)
			for i := range o.point {
				o.point[i] = randFr(rng)
			}
			if o.proof, o.value, err = srs.Open(m, o.point); err != nil {
				t.Fatal(err)
			}
			checkVerifierEquivalence(t, o, singleFieldMutations(mu, mu),
				func(o *opening) (bool, error) { return srs.Verify(o.c, o.point, o.value, o.proof) },
				func(o *opening) (bool, error) { return oracleVerifyPST(srs, o.c, o.point, o.value, o.proof) })
		})
		t.Run(fmt.Sprintf("zeromorph/mu%d", mu), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(8000 + mu)))
			srs := ZeromorphSetupFromSeed([]byte{0xe1, byte(mu)}, mu)
			m := randMLE(rng, mu)
			var err error
			var o opening
			if o.c, err = srs.Commit(m); err != nil {
				t.Fatal(err)
			}
			o.point = make([]ff.Fr, mu)
			for i := range o.point {
				o.point[i] = randFr(rng)
			}
			if o.proof, o.value, err = srs.Open(m, o.point); err != nil {
				t.Fatal(err)
			}
			checkVerifierEquivalence(t, o, singleFieldMutations(mu, mu+2),
				func(o *opening) (bool, error) { return srs.Verify(o.c, o.point, o.value, o.proof) },
				func(o *opening) (bool, error) { return oracleVerifyZeromorph(srs, o.c, o.point, o.value, o.proof) })
		})
	}
}

// TestVerifyWithMatchesG2SideOracle re-runs the mutation equivalence of
// TestVerifyMatchesG2SideOracle through VerifyWith under budgets of one
// and two goroutines: both must reach the same verdict, and it must be
// the oracle's.
func TestVerifyWithMatchesG2SideOracle(t *testing.T) {
	unit := []ff.Fr{ff.FrOne()}
	// budgets runs verify under one goroutine and under two, requires the
	// same verdict from both and returns the first's.
	budgets := func(t *testing.T, verify func(o *opening, procs int) (bool, error)) func(o *opening) (bool, error) {
		return func(o *opening) (bool, error) {
			ok1, err1 := verify(o, 1)
			ok2, err2 := verify(o, 2)
			if (ok1 && err1 == nil) != (ok2 && err2 == nil) {
				t.Fatalf("one goroutine accepts=%v (err %v), two accept=%v (err %v)", ok1, err1, ok2, err2)
			}
			return ok1, err1
		}
	}
	for mu := 1; mu <= 8; mu++ {
		t.Run(fmt.Sprintf("pst/mu%d", mu), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + mu)))
			srs := SetupFromSeed([]byte{0xe0, byte(mu)}, mu)
			checkVerifierEquivalence(t, openRandom(t, srs, rng, mu), singleFieldMutations(mu, mu),
				budgets(t, func(o *opening, procs int) (bool, error) {
					return srs.VerifyWith([]Commitment{o.c}, unit, o.point, o.value, o.proof, poly.Options{Procs: procs})
				}),
				func(o *opening) (bool, error) { return oracleVerifyPST(srs, o.c, o.point, o.value, o.proof) })
		})
		t.Run(fmt.Sprintf("zeromorph/mu%d", mu), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(8000 + mu)))
			srs := ZeromorphSetupFromSeed([]byte{0xe1, byte(mu)}, mu)
			checkVerifierEquivalence(t, openRandom(t, srs, rng, mu), singleFieldMutations(mu, mu+2),
				budgets(t, func(o *opening, procs int) (bool, error) {
					return srs.VerifyWith([]Commitment{o.c}, unit, o.point, o.value, o.proof, poly.Options{Procs: procs})
				}),
				func(o *opening) (bool, error) { return oracleVerifyZeromorph(srs, o.c, o.point, o.value, o.proof) })
		})
	}
}

// openRandom commits to a random table of mu variables and opens it at a
// random point.
func openRandom(t *testing.T, backend PCS, rng *rand.Rand, mu int) opening {
	t.Helper()
	m := randMLE(rng, mu)
	var err error
	var o opening
	if o.c, err = backend.Commit(m); err != nil {
		t.Fatal(err)
	}
	o.point = make([]ff.Fr, mu)
	for i := range o.point {
		o.point[i] = randFr(rng)
	}
	if o.proof, o.value, err = backend.Open(m, o.point); err != nil {
		t.Fatal(err)
	}
	return o
}
