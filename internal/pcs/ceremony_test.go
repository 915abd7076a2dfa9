package pcs

import (
	"fmt"
	"runtime"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/transcript"
)

// edgeTrapdoors are the τ values that push the ceremony through its
// special cases: 0 and 1 zero out half of every eq table (points at
// infinity meet the layer fold), 1/2 makes eq(0, τ) = eq(1, τ) (every fold
// addition is a doubling), and r−1 gives the largest canonical scalar.
func edgeTrapdoors() []ff.Fr {
	var zero, one, half, minusOne ff.Fr
	one.SetOne()
	half.Halve(&one)
	minusOne.Neg(&one)
	return []ff.Fr{zero, one, half, minusOne}
}

// ceremonyMus lists the sizes compared against the oracle, which costs
// 2·2^μ double-and-add scalar multiplications per trapdoor set. Up to
// μ=10 a layer is a single kernel chunk; μ=12 (random and mixed trapdoors
// only) adds the multi-chunk, multi-worker split.
func ceremonyMus() []int {
	mus := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if !testing.Short() {
		mus = append(mus, 8, 9, 10, 12)
	}
	return mus
}

// withProcs runs fn under GOMAXPROCS 1 and 4: the ceremony kernels size
// their worker split from it.
func withProcs(t *testing.T, fn func(t *testing.T)) {
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			fn(t)
		})
	}
}

func TestPSTCeremonyMatchesOracle(t *testing.T) {
	edges := edgeTrapdoors()
	for _, mu := range ceremonyMus() {
		random := transcript.New("ceremony-test").ChallengeFrs("tau", mu)
		sets := map[string][]ff.Fr{"random": random, "mixed": make([]ff.Fr, mu)}
		for j := range sets["mixed"] {
			// Edge values interleaved with random ones, so infinity,
			// doubling and generic additions meet in one layer.
			if j%5 < len(edges) {
				sets["mixed"][j] = edges[j%5]
			} else {
				sets["mixed"][j] = random[j]
			}
		}
		for e, name := range []string{"zero", "one", "half", "minus-one"} {
			if mu > 10 {
				break
			}
			sets[name] = make([]ff.Fr, mu)
			for j := range sets[name] {
				sets[name][j] = edges[e]
			}
		}
		for name, taus := range sets {
			want := oracleSetupWithTaus(taus)
			t.Run(fmt.Sprintf("mu%d/%s", mu, name), func(t *testing.T) {
				withProcs(t, func(t *testing.T) {
					got := SetupWithTaus(taus)
					if len(got.Lag) != len(want.Lag) {
						t.Fatalf("%d layers, oracle %d", len(got.Lag), len(want.Lag))
					}
					for k := range want.Lag {
						if len(got.Lag[k]) != len(want.Lag[k]) {
							t.Fatalf("Lag[%d] has %d points, oracle %d", k, len(got.Lag[k]), len(want.Lag[k]))
						}
						for i := range want.Lag[k] {
							// Struct equality: same Montgomery limbs and
							// infinity flag.
							if got.Lag[k][i] != want.Lag[k][i] {
								t.Fatalf("Lag[%d][%d] differs from the oracle", k, i)
							}
						}
					}
					for j := range want.HTau {
						if !got.HTau[j].Equal(&want.HTau[j]) {
							t.Fatalf("HTau[%d] differs from the oracle", j)
						}
					}
					if got.G != want.G || !got.H.Equal(&want.H) {
						t.Fatal("generators differ from the oracle")
					}
					if got.Digest() != want.Digest() {
						t.Fatal("SRS digest differs from the oracle")
					}
				})
			})
		}
	}
}

func TestZeromorphCeremonyMatchesOracle(t *testing.T) {
	taus := map[string]ff.Fr{"random": transcript.New("ceremony-test").ChallengeFr("tau")}
	for e, name := range []string{"zero", "one", "half", "minus-one"} {
		taus[name] = edgeTrapdoors()[e]
	}
	for _, mu := range ceremonyMus() {
		for name, tau := range taus {
			if mu > 10 && name != "random" {
				continue
			}
			want := oracleZeromorphSetupWithTau(tau, mu)
			t.Run(fmt.Sprintf("mu%d/%s", mu, name), func(t *testing.T) {
				withProcs(t, func(t *testing.T) {
					got := ZeromorphSetupWithTau(tau, mu)
					if len(got.Pow) != len(want.Pow) {
						t.Fatalf("%d powers, oracle %d", len(got.Pow), len(want.Pow))
					}
					for i := range want.Pow {
						if got.Pow[i] != want.Pow[i] {
							t.Fatalf("Pow[%d] differs from the oracle", i)
						}
					}
					if !got.HTau.Equal(&want.HTau) || got.G != want.G || !got.H.Equal(&want.H) {
						t.Fatal("verifier side differs from the oracle")
					}
					if got.Digest() != want.Digest() {
						t.Fatal("SRS digest differs from the oracle")
					}
				})
			})
		}
	}
}
