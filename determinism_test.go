package zkspeed_test

import (
	"bytes"
	"context"
	"testing"

	"zkspeed"
)

// TestProofDeterminism: the prover is deterministic given the same keys
// and assignment (Fiat–Shamir leaves no prover randomness once blinding is
// out of scope), so proofs must serialize identically across runs.
func TestProofDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full proofs are slow")
	}
	circuit, assignment, _, err := zkspeed.SyntheticWorkloadSeeded(7, 555)
	if err != nil {
		t.Fatal(err)
	}
	eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(555)))
	ctx := context.Background()
	r1, err := eng.Prove(ctx, circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Prove(ctx, circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := r1.Proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := r2.Proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("prover is not deterministic")
	}
}

// TestSimulatorDeterminism: the analytical models must be pure functions.
func TestSimulatorDeterminism(t *testing.T) {
	cfg := zkspeed.PaperDesign()
	a := zkspeed.Simulate(cfg, 20)
	b := zkspeed.Simulate(cfg, 20)
	if a.TotalCycles != b.TotalCycles || a.Kernels != b.Kernels {
		t.Fatal("simulator is not deterministic")
	}
}

// TestAreaScalesWithProblemSize: SRAM grows with μ (the Fig. 14
// observation that MLE SRAM eventually dominates).
func TestAreaScalesWithProblemSize(t *testing.T) {
	cfg := zkspeed.PaperDesign()
	prev := 0.0
	for mu := 17; mu <= 24; mu++ {
		a := zkspeed.Area(cfg, mu)
		if a.SRAM <= prev {
			t.Fatalf("SRAM area not growing at mu=%d", mu)
		}
		if a.TotalCompute() != zkspeed.Area(cfg, 17).TotalCompute() {
			t.Fatal("compute area must not depend on problem size")
		}
		prev = a.SRAM
	}
}
