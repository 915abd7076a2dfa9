package hyperplonk

import (
	"math/big"
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
)

// setupSeeded preprocesses circuit under a fresh PST ceremony derived
// from seed.
func setupSeeded(circuit *Circuit, seed byte) (*ProvingKey, *VerifyingKey, error) {
	return SetupWithPCS(circuit, pcs.SetupFromSeed([]byte{seed}, circuit.Mu))
}

func randFr(rng *rand.Rand) ff.Fr {
	v := new(big.Int).Rand(rng, ff.FrModulusBig())
	var e ff.Fr
	e.SetBigInt(v)
	return e
}

// buildQuadratic builds a circuit proving knowledge of x with
// y = x² + 3x + 5, where y is public and x private.
func buildQuadratic(x uint64) (*Circuit, *Assignment, []ff.Fr, error) {
	b := NewBuilder()
	xv := b.Witness(ff.NewFr(x))
	x2 := b.Mul(xv, xv)
	three := ff.NewFr(3)
	tx := b.MulConst(three, xv)
	s := b.Add(x2, tx)
	y := b.AddConst(s, ff.NewFr(5))
	// expose y as a public input via copy constraint
	yPub := b.PublicInput(b.Value(y))
	b.AssertEqual(y, yPub)
	return b.Compile()
}

func TestBuilderCompileAndCheck(t *testing.T) {
	circuit, assignment, pub, err := buildQuadratic(7)
	if err != nil {
		t.Fatal(err)
	}
	want := ff.NewFr(7*7 + 3*7 + 5)
	if len(pub) != 1 || !pub[0].Equal(&want) {
		t.Fatalf("public input = %v, want %s", pub, want)
	}
	if err := circuit.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := circuit.CheckAssignment(assignment); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderGateTypes(t *testing.T) {
	b := NewBuilder()
	x := b.Witness(ff.NewFr(6))
	y := b.Witness(ff.NewFr(4))
	sum := b.Add(x, y)
	if v := b.Value(sum); v.BigInt().Int64() != 10 {
		t.Fatal("Add value wrong")
	}
	diff := b.Sub(x, y)
	if v := b.Value(diff); v.BigInt().Int64() != 2 {
		t.Fatal("Sub value wrong")
	}
	prod := b.Mul(x, y)
	if v := b.Value(prod); v.BigInt().Int64() != 24 {
		t.Fatal("Mul value wrong")
	}
	k := b.Constant(ff.NewFr(24))
	b.AssertEqual(prod, k)
	bit := b.Witness(ff.NewFr(1))
	b.AssertBool(bit)
	sel := b.Select(bit, x, y)
	if v := b.Value(sel); v.BigInt().Int64() != 6 {
		t.Fatal("Select value wrong")
	}
	z := b.Sub(x, x)
	b.AssertZero(z)
	circuit, assignment, _, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := circuit.CheckAssignment(assignment); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderRejectsBadAssertions(t *testing.T) {
	b := NewBuilder()
	x := b.Witness(ff.NewFr(1))
	y := b.Witness(ff.NewFr(2))
	b.AssertEqual(x, y)
	if _, _, _, err := b.Compile(); err == nil {
		t.Fatal("Compile should fail on unequal AssertEqual")
	}
	b2 := NewBuilder()
	v := b2.Witness(ff.NewFr(5))
	b2.AssertBool(v)
	if _, _, _, err := b2.Compile(); err == nil {
		t.Fatal("Compile should fail on non-boolean AssertBool")
	}
}

func TestEndToEndProveVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("full proof verification is slow")
	}
	circuit, assignment, pub, err := buildQuadratic(11)
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := setupSeeded(circuit, 99)
	if err != nil {
		t.Fatal(err)
	}
	proof, timings, err := Prove(pk, assignment)
	if err != nil {
		t.Fatal(err)
	}
	if timings.Total <= 0 {
		t.Fatal("timings not recorded")
	}
	if err := Verify(vk, pub, proof); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	if proof.ProofSizeBytes() <= 0 || proof.ProofSizeBytes() > 64*1024 {
		t.Fatalf("implausible proof size %d", proof.ProofSizeBytes())
	}
}

func TestVerifyRejectsWrongPublicInput(t *testing.T) {
	if testing.Short() {
		t.Skip("full proof verification is slow")
	}
	circuit, assignment, pub, err := buildQuadratic(11)
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := setupSeeded(circuit, 100)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := Prove(pk, assignment)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]ff.Fr(nil), pub...)
	bad[0].Add(&bad[0], &bad[0])
	if err := Verify(vk, bad, proof); err == nil {
		t.Fatal("proof verified against wrong public input")
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	if testing.Short() {
		t.Skip("full proof verification is slow")
	}
	circuit, assignment, pub, err := buildQuadratic(3)
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := setupSeeded(circuit, 101)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := Prove(pk, assignment)
	if err != nil {
		t.Fatal(err)
	}
	rng2 := rand.New(rand.NewSource(102))

	// Tamper with a batch evaluation.
	p1 := *proof
	p1.Evals[3] = randFr(rng2)
	if err := Verify(vk, pub, &p1); err == nil {
		t.Fatal("tampered evaluation accepted")
	}

	// Tamper with a witness commitment (swap in the φ commitment, which is
	// guaranteed distinct from any witness table commitment).
	p2 := *proof
	p2.WitnessComms[0] = p2.PhiComm
	if err := Verify(vk, pub, &p2); err == nil {
		t.Fatal("tampered commitment accepted")
	}

	// Tamper with a zerocheck round.
	p3 := *proof
	p3.IdentityCheck.Rounds[0].Evals[2] = randFr(rng2)
	if err := Verify(vk, pub, &p3); err == nil {
		t.Fatal("tampered zerocheck accepted")
	}

	// Tamper with the product commitment.
	p4 := *proof
	p4.PiComm = p4.PhiComm
	if err := Verify(vk, pub, &p4); err == nil {
		t.Fatal("tampered product commitment accepted")
	}

	// Tamper with an opening quotient.
	p5 := *proof
	if len(p5.Opening.Quotients) > 1 {
		p5.Opening.Quotients[1] = p5.Opening.Quotients[0]
		if err := Verify(vk, pub, &p5); err == nil {
			t.Fatal("tampered opening accepted")
		}
	}
}

// TestUnsatisfiableWitnessCannotProve checks that a dishonest assignment
// fails the clear-text check (the prover refuses garbage inputs upstream).
func TestUnsatisfiableWitnessCannotProve(t *testing.T) {
	circuit, assignment, _, err := buildQuadratic(5)
	if err != nil {
		t.Fatal(err)
	}
	assignment.W3.Evals[2].Add(&assignment.W3.Evals[2], &assignment.W3.Evals[2])
	if !assignment.W3.Evals[2].IsZero() {
		if err := circuit.CheckAssignment(assignment); err == nil {
			// witness slot may be unused padding; force a used gate instead
			assignment.W1.Evals[1].SetUint64(123456)
			if err := circuit.CheckAssignment(assignment); err == nil {
				t.Fatal("corrupted assignment passed the gate check")
			}
		}
	}
}

func TestEvalScheduleShape(t *testing.T) {
	// The paper reports 22 evaluations among 13 polynomials at 6 distinct
	// points (§3.3.4); with the gate identity batched into the wiring
	// identity's zero-check, 19 evaluations at 5 points remain, of which
	// a proof carries the first 17.
	const mu = 4
	rng := rand.New(rand.NewSource(105))
	randPoint := func(n int) []ff.Fr {
		pt := make([]ff.Fr, n)
		for i := range pt {
			pt[i] = randFr(rng)
		}
		return pt
	}
	cl, _ := buildClaims(mu, randPoint(mu), randPoint(2))
	if len(cl.claims) != numClaims || NumEvaluations != numClaims-2 {
		t.Fatalf("claim list has %d entries, a proof carries %d: want 19 and 17", len(cl.claims), NumEvaluations)
	}
	polysSeen := map[int]bool{}
	pointsSeen := map[int]bool{}
	dup := map[claim]bool{}
	for _, c := range cl.claims {
		polysSeen[c.poly] = true
		pointsSeen[c.point] = true
		if dup[c] {
			t.Fatal("duplicate claim")
		}
		dup[c] = true
	}
	if len(polysSeen) != numPolys {
		t.Fatalf("claims cover %d polys, want %d", len(polysSeen), numPolys)
	}
	if len(pointsSeen) != 5 || len(cl.points) != 5 {
		t.Fatalf("claims cover %d of %d points, want 5", len(pointsSeen), len(cl.points))
	}
}

func TestSetupRejectsWrongSRS(t *testing.T) {
	circuit, _, _, err := buildQuadratic(2)
	if err != nil {
		t.Fatal(err)
	}
	otherCircuit := NewBuilder()
	v := otherCircuit.Witness(ff.NewFr(1))
	otherCircuit.AssertBool(v)
	c2, _, _, err := otherCircuit.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if c2.Mu != circuit.Mu {
		pk, _, err := setupSeeded(c2, 103)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := SetupWithPCS(circuit, pk.PCS); err == nil {
			t.Fatal("SetupWithPCS accepted mismatched backend")
		}
	}
}
