package sumcheck

import (
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// refInterpolateAt is the per-node Lagrange formula the batched
// interpolator replaced, kept as its oracle: one inversion per node.
func refInterpolateAt(evals []ff.Fr, r *ff.Fr) ff.Fr {
	d := len(evals) - 1
	for j := 0; j <= d; j++ {
		pj := ff.NewFr(uint64(j))
		if pj.Equal(r) {
			return evals[j]
		}
	}
	diffs := make([]ff.Fr, d+1)
	var full ff.Fr
	full.SetOne()
	for k := 0; k <= d; k++ {
		pk := ff.NewFr(uint64(k))
		diffs[k].Sub(r, &pk)
		full.Mul(&full, &diffs[k])
	}
	var out ff.Fr
	for j := 0; j <= d; j++ {
		var wj ff.Fr
		wj.SetOne()
		for k := 0; k <= d; k++ {
			if k == j {
				continue
			}
			var jk ff.Fr
			jk.SetInt64(int64(j - k))
			wj.Mul(&wj, &jk)
		}
		var den, term ff.Fr
		den.Mul(&diffs[j], &wj)
		den.Inverse(&den)
		term.Mul(&full, &den)
		term.Mul(&term, &evals[j])
		out.Add(&out, &term)
	}
	return out
}

// TestInterpolatorMatchesPerNodeFormula checks the batched interpolator,
// directly and through InterpolateAt, against the per-node oracle for
// degrees 1..6, at every sample point and at random points; one
// interpolator serves all the evaluations of its degree, as in Verify.
func TestInterpolatorMatchesPerNodeFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	for d := 1; d <= 6; d++ {
		ci := newClaimInterpolator(d, make([]ff.Fr, interpolatorLen(d)))
		var rs []ff.Fr
		for j := 0; j <= d; j++ {
			rs = append(rs, ff.NewFr(uint64(j)))
		}
		for i := 0; i < 20; i++ {
			rs = append(rs, randFr(rng))
		}
		for i := range rs {
			evals := make([]ff.Fr, d+1)
			for j := range evals {
				evals[j] = randFr(rng)
			}
			want := refInterpolateAt(evals, &rs[i])
			if got := ci.at(evals, &rs[i]); !got.Equal(&want) {
				t.Fatalf("d=%d point %d: interpolator != per-node formula", d, i)
			}
			if got := InterpolateAt(evals, &rs[i]); !got.Equal(&want) {
				t.Fatalf("d=%d point %d: InterpolateAt != per-node formula", d, i)
			}
		}
	}
}

// TestVerifyAllocsIndependentOfMu pins the verifier's allocations to a
// constant: Verify allocates as many objects at μ=16 as at μ=8, so no
// round allocates.
func TestVerifyAllocsIndependentOfMu(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(69))
	allocs := func(mu int) float64 {
		vp := NewVirtualPoly(mu)
		idx := make([]int, 3)
		for k := range idx {
			idx[k] = vp.AddMLE(randMLE(rng, mu))
		}
		vp.AddTerm(randFr(rng), idx...)
		claim := vp.SumOverHypercube()
		res := ProveWith(vp, transcript.New("sc-allocs"), poly.Options{})
		return testing.AllocsPerRun(5, func() {
			if _, err := Verify(claim, res.Proof, mu, 3, transcript.New("sc-allocs")); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a8, a16 := allocs(8), allocs(16); a8 != a16 {
		t.Fatalf("Verify allocates %v objects at mu=8 but %v at mu=16", a8, a16)
	}
}
