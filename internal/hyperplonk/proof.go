package hyperplonk

import (
	"fmt"

	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/sumcheck"
	"zkspeed/internal/transcript"
)

// Polynomial indices: the 13 polynomials the batch opening reads
// (§3.3.4).
const (
	polyQL = iota
	polyQR
	polyQM
	polyQO
	polyQC
	polySigma1
	polySigma2
	polySigma3
	polyW1
	polyW2
	polyW3
	polyPhi
	polyPi
	numPolys
)

// NumEvaluations is the batch-evaluation count: 19, where the paper's
// three sumchecks need 22 (§3.3.4), because the gate identity shares the
// wiring identity's zero-check point.
const NumEvaluations = 19

// transcriptDomain separates this protocol's Fiat–Shamir transcripts.
const transcriptDomain = "zkspeed.hyperplonk.v2"

// claim is one evaluation the batch opening proves: polynomial poly at
// opening point point. Its value travels in Proof.Evals, at the claim's
// position in its claimList.
type claim struct{ poly, point int }

// claimList is the batch opening's input (§3.3.4): the opening points
// the identities' final checks read and the claims at them, in the order
// Proof.Evals carries their values. Prover and verifier build the same
// list from the same challenges; the batch opening groups the claims by
// point.
type claimList struct {
	points [][]ff.Fr
	claims []claim
}

// open adds point as an opening point, claims each of polys at it and
// returns the point's index.
func (cl *claimList) open(point []ff.Fr, polys ...int) int {
	j := len(cl.points)
	cl.points = append(cl.points, point)
	for _, q := range polys {
		cl.claims = append(cl.claims, claim{poly: q, point: j})
	}
	return j
}

// value returns the claimed evaluation of poly at point, read from evals.
func (cl *claimList) value(evals []ff.Fr, point, poly int) ff.Fr {
	for k, c := range cl.claims {
		if c == (claim{poly: poly, point: point}) {
			return evals[k]
		}
	}
	panic("hyperplonk: no claim for this polynomial at this point")
}

// claimPoints are the opening points' indices in a claimList.
type claimPoints struct {
	zero, s0, s1, root, pi int
}

// buildClaims lays out the 19 evaluations among 13 polynomials at 5
// distinct points:
//   - the identities' zero-check reads all 13 polynomials at its final
//     point r;
//   - the product check reads φ and π at its child points
//     (b, r[0..μ-2]) for b = 0, 1, and π at the grand product root
//     (0,1,…,1);
//   - the public-input check reads w1 at (r_pi, 0, …, 0).
func buildClaims(mu int, r, rPI []ff.Fr) (*claimList, claimPoints) {
	cl := &claimList{}
	var pts claimPoints
	pts.zero = cl.open(r, polyQL, polyQR, polyQM, polyQO, polyQC, polySigma1, polySigma2, polySigma3,
		polyW1, polyW2, polyW3, polyPhi, polyPi)
	s0 := make([]ff.Fr, mu)
	s1 := make([]ff.Fr, mu)
	copy(s0[1:], r[:mu-1])
	copy(s1[1:], r[:mu-1])
	s1[0].SetOne()
	pts.s0 = cl.open(s0, polyPhi, polyPi)
	pts.s1 = cl.open(s1, polyPhi, polyPi)
	pts.root = cl.open(poly.ProductRootPoint(mu), polyPi)
	pi := make([]ff.Fr, mu)
	copy(pi, rPI)
	pts.pi = cl.open(pi, polyW1)
	if len(cl.claims) != NumEvaluations {
		panic("hyperplonk: claim list does not match NumEvaluations")
	}
	return cl, pts
}

// Proof is a complete HyperPlonk proof. All components are succinct:
// O(1) commitments, O(μ) sumcheck rounds and O(μ) opening quotients.
type Proof struct {
	// Scheme tags the commitment backend the proof was produced under.
	// The verifier rejects proofs whose scheme does not match its key.
	Scheme pcs.Scheme
	// Step 1: witness commitments.
	WitnessComms [3]pcs.Commitment
	// Step 2: the wiring identity's fraction and product commitments.
	PhiComm pcs.Commitment
	PiComm  pcs.Commitment
	// Step 3: one zero-check of the gate and wiring identities.
	IdentityCheck sumcheck.Proof
	// Step 4: the 19 batch evaluations in claim-list order.
	Evals [NumEvaluations]ff.Fr
	// Step 5: polynomial opening.
	OpenCheck sumcheck.Proof
	Opening   pcs.OpeningProof
}

// sumchecks lists the proof's sumchecks in wire order.
func (p *Proof) sumchecks() []*sumcheck.Proof {
	return []*sumcheck.Proof{&p.IdentityCheck, &p.OpenCheck}
}

// ProvingKey holds everything the prover needs. The commitment backend
// is reached only through the pcs.PCS interface, so a key preprocessed
// under any registered scheme drives the same prover.
type ProvingKey struct {
	Circuit *Circuit
	PCS     pcs.PCS
	VK      *VerifyingKey
}

// VerifyingKey holds the preprocessed circuit commitments.
type VerifyingKey struct {
	Mu            int
	NumPublic     int
	SelectorComms [5]pcs.Commitment // qL qR qM qO qC
	SigmaComms    [3]pcs.Commitment
	PCS           pcs.PCS
	digest        [32]byte
}

// Digest returns a hash binding the verifying key, its commitment scheme
// and its SRS digest, absorbed into every transcript so proofs are
// circuit- and setup-specific.
func (vk *VerifyingKey) Digest() []byte { return vk.digest[:] }

// SetupWithPCS preprocesses a circuit under an existing universal
// commitment backend — this is HyperPlonk's headline property (§1): the
// reference string is generated once and reused across circuits, and
// since the backend is reached through the interface, any registered
// scheme slots in.
func SetupWithPCS(circuit *Circuit, backend pcs.PCS) (*ProvingKey, *VerifyingKey, error) {
	if err := circuit.Validate(); err != nil {
		return nil, nil, err
	}
	if backend.MaxVars() != circuit.Mu {
		return nil, nil, errSRSSize{backend.MaxVars(), circuit.Mu}
	}
	vk := &VerifyingKey{
		Mu:        circuit.Mu,
		NumPublic: circuit.NumPublic,
		PCS:       backend,
	}
	var err error
	if vk.SelectorComms[0], err = backend.Commit(circuit.QL); err != nil {
		return nil, nil, err
	}
	if vk.SelectorComms[1], err = backend.Commit(circuit.QR); err != nil {
		return nil, nil, err
	}
	if vk.SelectorComms[2], err = backend.Commit(circuit.QM); err != nil {
		return nil, nil, err
	}
	if vk.SelectorComms[3], err = backend.Commit(circuit.QO); err != nil {
		return nil, nil, err
	}
	if vk.SelectorComms[4], err = backend.Commit(circuit.QC); err != nil {
		return nil, nil, err
	}
	for j := 0; j < 3; j++ {
		if vk.SigmaComms[j], err = backend.Commit(circuit.Sigma[j]); err != nil {
			return nil, nil, err
		}
	}
	// Bind the key material, the scheme and the SRS into a digest: a
	// verifier holding another setup, even one with the same key
	// commitments, draws other challenges.
	tr := transcript.New("zkspeed.hyperplonk.vk")
	for i := range vk.SelectorComms {
		tr.AppendG1("sel", &vk.SelectorComms[i].P)
	}
	for j := range vk.SigmaComms {
		tr.AppendG1("sigma", &vk.SigmaComms[j].P)
	}
	muFr := ff.NewFr(uint64(circuit.Mu))
	tr.AppendFr("mu", &muFr)
	npFr := ff.NewFr(uint64(circuit.NumPublic))
	tr.AppendFr("npub", &npFr)
	tr.AppendBytes("scheme", []byte{byte(backend.Scheme())})
	srs := backend.Digest()
	tr.AppendBytes("srs", srs[:])
	d := tr.ChallengeFr("digest")
	vk.digest = d.Bytes()

	pk := &ProvingKey{Circuit: circuit, PCS: backend, VK: vk}
	return pk, vk, nil
}

type errSRSSize [2]int

func (e errSRSSize) Error() string {
	return fmt.Sprintf("hyperplonk: SRS supports mu=%d, circuit needs mu=%d", e[0], e[1])
}
