package pcs

import (
	"math/rand"
	"sync"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// TestFirstVerifyConcurrent runs the first verification of a fresh SRS
// from eight goroutines at once, for both schemes: every one must accept,
// and all must see the one set of G2 lines the sync.Once built. Run it
// under -race to check the lazy build is synchronized.
func TestFirstVerifyConcurrent(t *testing.T) {
	const mu, workers = 6, 8
	for _, scheme := range []Scheme{SchemePST, SchemeZeromorph} {
		t.Run(scheme.String(), func(t *testing.T) {
			// Prove with one instance; verify on a fresh one from the same
			// seed, whose lines are not built yet.
			seed := []byte("pcs-first-verify")
			prover, err := NewBackend(scheme, seed, mu)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(91))
			m := randMLE(rng, mu)
			point := make([]ff.Fr, mu)
			for i := range point {
				point[i] = randFr(rng)
			}
			c, err := prover.Commit(m)
			if err != nil {
				t.Fatal(err)
			}
			proof, value, err := prover.Open(m, point)
			if err != nil {
				t.Fatal(err)
			}
			verifier, err := NewBackend(scheme, seed, mu)
			if err != nil {
				t.Fatal(err)
			}
			lines := func() *preparedG2 {
				switch s := verifier.(type) {
				case *SRS:
					return &s.lines
				case *ZeromorphSRS:
					return &s.lines
				}
				t.Fatalf("unexpected backend %T", verifier)
				return nil
			}()
			if lines.lines != nil {
				t.Fatal("setup built the G2 lines; they belong to the first Verify")
			}

			var wg sync.WaitGroup
			seen := make([]*curve.G2Prepared, workers)
			oks := make([]bool, workers)
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					oks[w], errs[w] = verifier.Verify(c, point, value, proof)
					seen[w] = &lines.lines[0]
				}(w)
			}
			wg.Wait()
			want := 2
			if scheme == SchemePST {
				want = mu + 1
			}
			if len(lines.lines) != want {
				t.Fatalf("%d prepared G2 points, want %d", len(lines.lines), want)
			}
			for w := 0; w < workers; w++ {
				if errs[w] != nil || !oks[w] {
					t.Fatalf("worker %d: ok=%v err=%v", w, oks[w], errs[w])
				}
				if seen[w] != seen[0] {
					t.Fatalf("worker %d saw a second set of lines", w)
				}
			}
		})
	}
}

// TestSRSPointsInSubgroup anchors the group elements a verifier trusts
// without downloading anything: both generators, and every G2 point the
// verifiers prepare lines for (PST's H and HTau, Zeromorph's H and [τ]H,
// μ = 1..6), are on their curves, finite, and of order r.
func TestSRSPointsInSubgroup(t *testing.T) {
	r := ff.FrModulusBig()
	g1 := curve.G1Generator()
	var g1j curve.G1Jac
	g1j.FromAffine(&g1)
	if !g1.IsOnCurve() || g1.Inf || !g1j.ScalarMulBig(&g1j, r).IsInfinity() {
		t.Fatal("G1 generator is not a finite point of order r")
	}
	checkG2 := func(name string, q curve.G2Affine) {
		t.Helper()
		var qj curve.G2Jac
		qj.FromAffine(&q)
		if !q.IsOnCurve() || q.Inf || !qj.ScalarMulBig(&qj, r).IsInfinity() {
			t.Fatalf("%s is not a finite point of order r", name)
		}
	}
	checkG2("G2 generator", curve.G2Generator())
	seed := []byte("pcs-subgroup")
	for mu := 1; mu <= 6; mu++ {
		pst := SetupFromSeed(seed, mu)
		if g := curve.G2Generator(); !pst.H.Equal(&g) || pst.G != g1 {
			t.Fatalf("mu=%d: PST SRS does not use the generators", mu)
		}
		for j := range pst.HTau {
			checkG2("PST HTau", pst.HTau[j])
		}
		zm := ZeromorphSetupFromSeed(seed, mu)
		if g := curve.G2Generator(); !zm.H.Equal(&g) || zm.G != g1 {
			t.Fatalf("mu=%d: Zeromorph SRS does not use the generators", mu)
		}
		checkG2("Zeromorph HTau", zm.HTau)
	}
}
