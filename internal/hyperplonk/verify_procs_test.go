package hyperplonk

import (
	"context"
	"fmt"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
)

// chainCircuit fills exactly 2^mu rows: a public input x and 2^mu − 1
// gates v ← v·x.
func chainCircuit(mu int) (*Circuit, *Assignment, []ff.Fr, error) {
	b := NewBuilder()
	x := b.PublicInput(ff.NewFr(3))
	v := x
	for i := 1; i < 1<<mu; i++ {
		v = b.Mul(v, x)
	}
	return b.Compile()
}

// TestVerifyVerdictsAtEveryBudget runs VerifyWithContext under goroutine
// budgets of 1, 2, 3 and 8 — one Miller loop, or loops over shares of
// the opening check's fixed pairs beside its MSM — on the honest proof
// and on every mutant TestVerifyRejectsEveryMutant builds, for both
// schemes at μ = 1, 2, 5 and 10: every budget must accept the honest
// proof and reject each mutant.
func TestVerifyVerdictsAtEveryBudget(t *testing.T) {
	budgets := []int{1, 2, 3, 8}
	for _, scheme := range []pcs.Scheme{pcs.SchemePST, pcs.SchemeZeromorph} {
		for _, mu := range []int{1, 2, 5, 10} {
			t.Run(fmt.Sprintf("%v/mu%d", scheme, mu), func(t *testing.T) {
				circuit, assignment, pub, err := chainCircuit(mu)
				if err != nil {
					t.Fatal(err)
				}
				if circuit.Mu != mu {
					t.Fatalf("circuit has μ=%d, want %d", circuit.Mu, mu)
				}
				pk, vk := mutationKeys(t, scheme, circuit)
				proof, _, err := ProveWithContext(context.Background(), pk, assignment, &ProveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				blob, err := proof.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				// verdicts runs one check under every budget and requires
				// each to say want.
				verdicts := func(name string, vk *VerifyingKey, pub []ff.Fr, p *Proof, want bool) {
					t.Helper()
					for _, procs := range budgets {
						err := VerifyWithContext(context.Background(), vk, pub, p, &VerifyOptions{Exec: poly.Options{Procs: procs}})
						if (err == nil) != want {
							t.Errorf("%s, procs %d: accepted = %v (err %v), want %v", name, procs, err == nil, err, want)
						}
					}
				}
				verdicts("honest proof", vk, pub, proof, true)
				for _, m := range proofMutants(proof) {
					var bad Proof
					if err := bad.UnmarshalBinary(blob); err != nil {
						t.Fatal(err)
					}
					m.apply(&bad)
					verdicts(m.name, vk, pub, &bad, false)
				}
				for i := range pub {
					bad := append([]ff.Fr(nil), pub...)
					addOne(&bad[i])
					verdicts(fmt.Sprintf("public input %d plus one", i), vk, bad, proof, false)
				}
				badVK := *vk
				badVK.digest[7] ^= 1
				verdicts("flipped vk digest", &badVK, pub, proof, false)
			})
		}
	}
}
