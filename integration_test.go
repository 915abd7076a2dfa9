package zkspeed_test

import (
	"context"
	"math"
	"testing"

	"zkspeed"
)

// TestEndToEndSyntheticWorkload runs the complete pipeline through the
// public API: §6.2-style workload → universal setup → prove → verify.
func TestEndToEndSyntheticWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	circuit, assignment, pub, err := zkspeed.SyntheticWorkloadSeeded(9, 2024)
	if err != nil {
		t.Fatal(err)
	}
	eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(2024)), zkspeed.WithTimings())
	ctx := context.Background()
	res, err := eng.Prove(ctx, circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	proof, timings := res.Proof, res.Timings
	if err := eng.Verify(ctx, circuit, pub, proof); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	if timings.WitnessCommit <= 0 || timings.PolyOpen <= 0 {
		t.Fatal("step timings missing")
	}
	// HyperPlonk proofs are a few KB (paper: "typically 5 KB").
	if kb := float64(proof.ProofSizeBytes()) / 1024; kb < 1 || kb > 32 {
		t.Fatalf("proof size %.1f KB outside the succinct regime", kb)
	}
}

// TestUniversalSetupReuse shares one SRS across two different circuits of
// the same size — HyperPlonk's universal-setup property (§1).
func TestUniversalSetupReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(3)))
	ctx := context.Background()

	c1, a1, p1, err := zkspeed.SyntheticWorkloadSeeded(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	pk1, vk1, err := eng.Setup(ctx, c1)
	if err != nil {
		t.Fatal(err)
	}

	// A second, different circuit preprocessed under the SAME SRS.
	c2, a2, p2, err := zkspeed.SyntheticWorkloadSeeded(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, vk2, err := zkspeed.SetupWithPCS(c2, pk1.PCS)
	if err != nil {
		t.Fatal(err)
	}

	r1, err := eng.Prove(ctx, c1, a1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Prove(ctx, c2, a2)
	if err != nil {
		t.Fatal(err)
	}
	if n := eng.Stats().SRSSetups; n != 1 {
		t.Fatalf("%d ceremonies for two circuits of one size, want 1", n)
	}
	if err := eng.VerifyWithKey(ctx, vk1, p1, r1.Proof); err != nil {
		t.Fatal(err)
	}
	// vk2 comes from SetupWithPCS on circuit 1's backend: the engine's
	// proof for circuit 2 verifies under it only if both share the SRS.
	if err := eng.VerifyWithKey(ctx, vk2, p2, r2.Proof); err != nil {
		t.Fatal(err)
	}
	// Cross-verification must fail: the proofs are circuit-specific even
	// though the SRS is shared.
	if err := eng.VerifyWithKey(ctx, vk1, p1, r2.Proof); err == nil {
		t.Fatal("proof for circuit 2 verified under circuit 1's key")
	}
}

// TestModelHeadline reproduces the paper's abstract claim from the public
// API: a ~366 mm², 2 TB/s design accelerating proof generation by roughly
// 800× (geomean) over the CPU baseline.
func TestModelHeadline(t *testing.T) {
	cfg := zkspeed.PaperDesign()
	area := zkspeed.Area(cfg, 23) // the fixed design is sized for 2^23
	if area.Total() < 330 || area.Total() > 400 {
		t.Fatalf("area %.1f mm², paper reports 366.46", area.Total())
	}
	gmean := 1.0
	sizes := []int{17, 20, 21, 22, 23}
	for _, mu := range sizes {
		res := zkspeed.Simulate(cfg, mu)
		gmean *= zkspeed.CPUTimeMS(mu) / res.Milliseconds()
	}
	gmean = math.Pow(gmean, 1/float64(len(sizes)))
	if gmean < 500 || gmean > 1200 {
		t.Fatalf("geomean speedup %.0f×, paper reports 801×", gmean)
	}
}
