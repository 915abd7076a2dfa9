package hyperplonk

import (
	"fmt"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/sumcheck"
)

// challenges flattens a replay's challenges in draw order: β, γ, α, t,
// the identity check's r, r_pi, η, the opening check's r_open.
func (rp *replayed) challenges() []ff.Fr {
	out := []ff.Fr{rp.beta, rp.gamma, rp.alpha}
	out = append(out, rp.zcPoint...)
	out = append(out, rp.zc.Challenges...)
	out = append(out, rp.rPI...)
	out = append(out, rp.eta)
	return append(out, rp.oc.Challenges...)
}

// TestTranscriptBinding replays the verifier's transcript (the weak
// Fiat–Shamir class: every value the verifier reads must be absorbed
// before the challenges that depend on it). Changing any sent point, h
// value, evaluation or opening-round value, any public input or the vk
// digest must change exactly the challenges drawn after it is absorbed
// — the statement (vk digest, which binds μ, and public inputs) before
// the first. The two evaluations the verifier supplies must be 1 and the
// public inputs' MLE at r_pi, so they depend only on what was absorbed
// before the batch evaluations, and no later change may move them. (The
// opening quotients follow the last challenge: the commitment scheme's
// own check reads them.)
func TestTranscriptBinding(t *testing.T) {
	for _, scheme := range []pcs.Scheme{pcs.SchemePST, pcs.SchemeZeromorph} {
		circuit, assignment, pub, err := mutationCircuit()
		if err != nil {
			t.Fatal(err)
		}
		pk, vk := mutationKeys(t, scheme, circuit)
		proof, _, err := Prove(pk, assignment)
		if err != nil {
			t.Fatal(err)
		}
		base, err := replay(vk, pub, proof, poly.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mu, piVars := vk.Mu, len(base.rPI)
		piEval := PublicInputMLE(pub, piVars).Evaluate(base.rPI)
		if !base.evals[NumEvaluations].IsOne() || !base.evals[NumEvaluations+1].Equal(&piEval) {
			t.Fatalf("%v: the verifier-supplied evaluations are not π(root) = 1 and the public inputs' MLE at r_pi", scheme)
		}
		// Draw-order positions of the challenges that follow each value.
		afterComms, afterWiring := 0, 2
		afterRound := func(j int) int { return 3 + mu + j }
		afterEvals := 3 + 2*mu + piVars
		afterOpenRound := func(j int) int { return afterEvals + 1 + j }

		type change struct {
			name  string
			first int // the first challenge drawn after the changed value
			pub   []ff.Fr
			vk    *VerifyingKey
			apply func(*Proof)
		}
		var changes []change
		for i := 0; i < 3; i++ {
			changes = append(changes, change{name: fmt.Sprintf("witness commitment %d", i), first: afterComms,
				apply: func(q *Proof) { addG(&q.WitnessComms[i].P) }})
		}
		changes = append(changes,
			change{name: "φ commitment", first: afterWiring, apply: func(q *Proof) { addG(&q.PhiComm.P) }},
			change{name: "π commitment", first: afterWiring, apply: func(q *Proof) { addG(&q.PiComm.P) }})
		for j, rd := range proof.IdentityCheck.Rounds {
			for v := range rd.Evals {
				changes = append(changes, change{name: fmt.Sprintf("identity round %d value %d", j, v), first: afterRound(j),
					apply: func(q *Proof) { addOne(&q.IdentityCheck.Rounds[j].Evals[v]) }})
			}
		}
		for k := range proof.Evals {
			changes = append(changes, change{name: fmt.Sprintf("evaluation %d", k), first: afterEvals,
				apply: func(q *Proof) { addOne(&q.Evals[k]) }})
		}
		for j, rd := range proof.OpenCheck.Rounds {
			for v := range rd.Evals {
				changes = append(changes, change{name: fmt.Sprintf("opening round %d value %d", j, v), first: afterOpenRound(j),
					apply: func(q *Proof) { addOne(&q.OpenCheck.Rounds[j].Evals[v]) }})
			}
		}
		for i := range pub {
			bad := append([]ff.Fr(nil), pub...)
			addOne(&bad[i])
			changes = append(changes, change{name: fmt.Sprintf("public input %d", i), first: 0, pub: bad})
		}
		badVK := *vk
		badVK.digest[0] ^= 1
		changes = append(changes, change{name: "vk digest", first: 0, vk: &badVK})

		want := base.challenges()
		if len(want) != afterOpenRound(mu) {
			t.Fatalf("%v: %d challenges drawn, the positions above assume %d", scheme, len(want), afterOpenRound(mu))
		}
		for _, c := range changes {
			q := *proof
			q.IdentityCheck = cloneSumcheck(proof.IdentityCheck)
			q.OpenCheck = cloneSumcheck(proof.OpenCheck)
			if c.apply != nil {
				c.apply(&q)
			}
			p, k := pub, vk
			if c.pub != nil {
				p = c.pub
			}
			if c.vk != nil {
				k = c.vk
			}
			rp, err := replay(k, p, &q, poly.Options{})
			if err != nil {
				t.Fatalf("%v: %s: %v", scheme, c.name, err)
			}
			got := rp.challenges()
			for i := range want {
				if same := got[i].Equal(&want[i]); same != (i < c.first) {
					t.Fatalf("%v: %s: challenge %d changed=%v, want changed exactly from challenge %d on", scheme, c.name, i, !same, c.first)
				}
			}
			if c.first >= afterEvals && (!rp.evals[NumEvaluations].Equal(&base.evals[NumEvaluations]) ||
				!rp.evals[NumEvaluations+1].Equal(&base.evals[NumEvaluations+1])) {
				t.Fatalf("%v: %s, absorbed after the batch evaluations, moved a verifier-supplied evaluation", scheme, c.name)
			}
		}
	}
}

func cloneSumcheck(p sumcheck.Proof) sumcheck.Proof {
	out := sumcheck.Proof{Rounds: make([]sumcheck.RoundPoly, len(p.Rounds))}
	for j, rd := range p.Rounds {
		out.Rounds[j].Evals = append([]ff.Fr(nil), rd.Evals...)
	}
	return out
}
