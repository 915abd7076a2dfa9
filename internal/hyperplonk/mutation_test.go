package hyperplonk

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
)

// polyNames labels the claim list's polynomials in mutant names.
var polyNames = [numPolys]string{
	polyQL: "qL", polyQR: "qR", polyQM: "qM", polyQO: "qO", polyQC: "qC",
	polySigma1: "σ1", polySigma2: "σ2", polySigma3: "σ3",
	polyW1: "w1", polyW2: "w2", polyW3: "w3", polyPhi: "φ", polyPi: "π",
}

// mutationCircuit proves knowledge of x with y = x² + 3x + 5 for a public
// y, and that a second public input z lies in [0, 2^4).
func mutationCircuit() (*Circuit, *Assignment, []ff.Fr, error) {
	b := NewBuilder()
	xv := b.Witness(ff.NewFr(3))
	s := b.Add(b.Mul(xv, xv), b.MulConst(ff.NewFr(3), xv))
	y := b.AddConst(s, ff.NewFr(5))
	b.AssertEqual(y, b.PublicInput(b.Value(y)))
	b.AssertInRange(b.PublicInput(ff.NewFr(9)), 4)
	return b.Compile()
}

// mutationKeys preprocesses mutationCircuit under a fresh setup of scheme.
func mutationKeys(t *testing.T, scheme pcs.Scheme, circuit *Circuit) (*ProvingKey, *VerifyingKey) {
	t.Helper()
	backend, err := pcs.NewBackend(scheme, []byte{0x3a, byte(scheme)}, circuit.Mu)
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := SetupWithPCS(circuit, backend)
	if err != nil {
		t.Fatal(err)
	}
	return pk, vk
}

// addG moves a point by the generator.
func addG(p *curve.G1Affine) {
	g := curve.G1Generator()
	var j curve.G1Jac
	j.FromAffine(p)
	j.AddMixed(&g)
	p.FromJacobian(&j)
}

func addOne(v *ff.Fr) {
	one := ff.FrOne()
	v.Add(v, &one)
}

// proofMutant tampers with one value a proof sends.
type proofMutant struct {
	name  string
	apply func(*Proof)
}

// proofMutants enumerates every value p sends: each commitment and each
// opening quotient with the generator added, each sent sumcheck round
// value and each batch evaluation plus one. The evaluations are named
// by the claim list the verifier reads them through.
func proofMutants(p *Proof) []proofMutant {
	var ms []proofMutant
	comms := func(q *Proof) []*pcs.Commitment {
		return []*pcs.Commitment{&q.WitnessComms[0], &q.WitnessComms[1], &q.WitnessComms[2], &q.PhiComm, &q.PiComm}
	}
	for i := range comms(p) {
		ms = append(ms, proofMutant{fmt.Sprintf("commitment %d", i), func(q *Proof) { addG(&comms(q)[i].P) }})
	}
	for s, sc := range p.sumchecks() {
		for r, rd := range sc.Rounds {
			for v := range rd.Evals {
				ms = append(ms, proofMutant{fmt.Sprintf("sumcheck %d round %d value %d", s, r, v),
					func(q *Proof) { addOne(&q.sumchecks()[s].Rounds[r].Evals[v]) }})
			}
		}
	}
	mu := len(p.OpenCheck.Rounds)
	cl, _ := buildClaims(mu, make([]ff.Fr, mu), nil)
	for k, c := range cl.claims {
		ms = append(ms, proofMutant{fmt.Sprintf("evaluation %s at point %d", polyNames[c.poly], c.point),
			func(q *Proof) { addOne(&q.Evals[k]) }})
	}
	for i := range p.Opening.Quotients {
		ms = append(ms, proofMutant{fmt.Sprintf("opening quotient %d", i), func(q *Proof) { addG(&q.Opening.Quotients[i]) }})
	}
	return ms
}

// TestVerifyRejectsEveryMutant is the protocol mutation harness: under
// each scheme, Verify must accept the honest proof and reject it after
// any one value it sends is changed, any public input is changed, or the
// verifying key's digest has a byte flipped.
func TestVerifyRejectsEveryMutant(t *testing.T) {
	for _, scheme := range []pcs.Scheme{pcs.SchemePST, pcs.SchemeZeromorph} {
		circuit, assignment, pub, err := mutationCircuit()
		if err != nil {
			t.Fatal(err)
		}
		pk, vk := mutationKeys(t, scheme, circuit)
		proof, _, err := ProveWithContext(context.Background(), pk, assignment, &ProveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(vk, pub, proof); err != nil {
			t.Fatalf("%v: honest proof rejected: %v", scheme, err)
		}
		blob, err := proof.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		mutants := proofMutants(proof)
		if want := 5 + len(proof.Opening.Quotients) + NumEvaluations; len(mutants) <= want {
			t.Fatalf("%v: %d mutants enumerated, want more than %d", scheme, len(mutants), want)
		}
		for _, m := range mutants {
			var bad Proof
			if err := bad.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			m.apply(&bad)
			if err := Verify(vk, pub, &bad); err == nil {
				t.Errorf("%v: %s: mutated proof accepted", scheme, m.name)
			}
		}
		for i := range pub {
			bad := append([]ff.Fr(nil), pub...)
			addOne(&bad[i])
			if err := Verify(vk, bad, proof); err == nil {
				t.Errorf("%v: public input %d plus one accepted", scheme, i)
			}
		}
		badVK := *vk
		badVK.digest[7] ^= 1
		if err := Verify(&badVK, pub, proof); err == nil {
			t.Errorf("%v: flipped vk digest accepted", scheme)
		}
	}
}

// setCycle sets every slot of the copy cycle through slot (j, i) to v:
// the variable changes value and every copy of it follows.
func setCycle(c *Circuit, a *Assignment, j, i int, v ff.Fr) {
	n := uint64(c.NumGates())
	w := [3]*poly.MLE{a.W1, a.W2, a.W3}
	start := uint64(j)*n + uint64(i)
	for slot := start; ; {
		w[slot/n].Evals[slot%n] = v
		slot = c.Sigma[slot/n].Evals[slot%n].CanonicalLimbs()[0]
		if slot == start {
			return
		}
	}
}

// TestVerifyRejectsUnsatisfiedWitnesses proves witnesses outside the
// relation straight through ProveWithContext, which has no clear-text
// check, and requires Verify to reject each proof.
func TestVerifyRejectsUnsatisfiedWitnesses(t *testing.T) {
	cases := []struct {
		name, violates string
		// tamper breaks the assignment and returns the public inputs
		// the proof claims.
		tamper func(c *Circuit, a *Assignment, pub []ff.Fr) []ff.Fr
	}{
		{"broken gate", "gate", func(c *Circuit, a *Assignment, pub []ff.Fr) []ff.Fr {
			// x, the first gate's w1, with every copy of it.
			setCycle(c, a, 0, c.NumPublic, ff.NewFr(4))
			return pub
		}},
		{"broken copy", "copy", func(c *Circuit, a *Assignment, pub []ff.Fr) []ff.Fr {
			// One slot of the selector-free public row of y.
			a.W2.Evals[0] = ff.NewFr(1)
			return pub
		}},
		{"out-of-range public input", "gate", func(c *Circuit, a *Assignment, pub []ff.Fr) []ff.Fr {
			// z = 16 does not fit in its four bits.
			setCycle(c, a, 0, 1, ff.NewFr(16))
			return c.PublicInputs(a)
		}},
	}
	for _, scheme := range []pcs.Scheme{pcs.SchemePST, pcs.SchemeZeromorph} {
		for _, tc := range cases {
			circuit, assignment, pub, err := mutationCircuit()
			if err != nil {
				t.Fatal(err)
			}
			pk, vk := mutationKeys(t, scheme, circuit)
			claimed := tc.tamper(circuit, assignment, pub)
			if err := circuit.CheckAssignment(assignment); err == nil || !strings.Contains(err.Error(), tc.violates) {
				t.Fatalf("%s: clear-text check says %v, want a %s violation", tc.name, err, tc.violates)
			}
			proof, _, err := ProveWithContext(context.Background(), pk, assignment, &ProveOptions{})
			if err != nil {
				t.Fatalf("%v %s: prove: %v", scheme, tc.name, err)
			}
			if err := Verify(vk, claimed, proof); err == nil {
				t.Errorf("%v: %s: proof of an unsatisfied witness accepted", scheme, tc.name)
			}
		}
	}
}
