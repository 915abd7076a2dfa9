package hyperplonk_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/workload"
)

// zeromorphKeys preprocesses the deterministic workload under the
// Zeromorph backend.
func zeromorphKeys(t *testing.T, mu int) (*hyperplonk.ProvingKey, *hyperplonk.VerifyingKey, *hyperplonk.Assignment, []ff.Fr) {
	t.Helper()
	circuit, assignment, pub, err := workload.SyntheticSeed(mu, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	backend, err := pcs.NewBackend(pcs.SchemeZeromorph, []byte{0xd2, byte(mu)}, circuit.Mu)
	if err != nil {
		t.Fatalf("backend: %v", err)
	}
	pk, vk, err := hyperplonk.SetupWithPCS(circuit, backend)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	return pk, vk, assignment, pub
}

// TestZeromorphProveVerify runs the full protocol — all three sumchecks
// plus the batched opening — under the Zeromorph backend.
func TestZeromorphProveVerify(t *testing.T) {
	for _, mu := range []int{2, 4, 6} {
		pk, vk, assignment, pub := zeromorphKeys(t, mu)
		proof, _, err := hyperplonk.ProveWithContext(context.Background(), pk, assignment,
			&hyperplonk.ProveOptions{Exec: poly.Options{Procs: 4}})
		if err != nil {
			t.Fatalf("mu=%d: prove: %v", mu, err)
		}
		if proof.Scheme != pcs.SchemeZeromorph {
			t.Fatalf("mu=%d: proof tagged %v", mu, proof.Scheme)
		}
		if err := hyperplonk.Verify(vk, pub, proof); err != nil {
			t.Fatalf("mu=%d: verify: %v", mu, err)
		}
		// The scheme pin accepts the matching name and rejects others.
		if err := hyperplonk.VerifyWithContext(context.Background(), vk, pub, proof,
			&hyperplonk.VerifyOptions{Scheme: "zeromorph"}); err != nil {
			t.Fatalf("mu=%d: pinned verify: %v", mu, err)
		}
		if err := hyperplonk.VerifyWithContext(context.Background(), vk, pub, proof,
			&hyperplonk.VerifyOptions{Scheme: "pst"}); err == nil {
			t.Fatalf("mu=%d: pst pin accepted a zeromorph proof", mu)
		}
		// A flipped evaluation must still be caught.
		bad := *proof
		var one ff.Fr
		one.SetOne()
		bad.Evals[3].Add(&bad.Evals[3], &one)
		if err := hyperplonk.Verify(vk, pub, &bad); err == nil {
			t.Fatalf("mu=%d: tampered proof verified", mu)
		}
	}
}

// TestZeromorphProofWireRoundTrip checks the version-2 tagged layout:
// scheme and quotient shape survive a marshal/unmarshal cycle and the
// decoded proof still verifies.
func TestZeromorphProofWireRoundTrip(t *testing.T) {
	pk, vk, assignment, pub := zeromorphKeys(t, 4)
	proof, _, err := hyperplonk.ProveWithContext(context.Background(), pk, assignment, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if blob[4] != 2 {
		t.Fatalf("zeromorph proof marshaled as version %d, want 2", blob[4])
	}
	var back hyperplonk.Proof
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Scheme != pcs.SchemeZeromorph {
		t.Fatalf("decoded scheme %v", back.Scheme)
	}
	if got := len(back.Opening.Quotients); got != vk.Mu+2 {
		t.Fatalf("decoded %d quotients, want %d", got, vk.Mu+2)
	}
	reblob, err := back.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(reblob, blob) {
		t.Fatal("round trip is not canonical")
	}
	if err := hyperplonk.Verify(vk, pub, &back); err != nil {
		t.Fatalf("decoded proof rejected: %v", err)
	}
}

// TestCrossSchemeRejection feeds a Zeromorph proof to a PST key (and the
// reverse): both must fail with a scheme-mismatch error before any
// commitment arithmetic, never panic.
func TestCrossSchemeRejection(t *testing.T) {
	const mu = 3
	circuit, assignment, pub, err := workload.SyntheticSeed(mu, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	srs := pcs.SetupFromSeed([]byte{0xd1, byte(mu)}, circuit.Mu)
	pkPST, vkPST, err := hyperplonk.SetupWithPCS(circuit, srs)
	if err != nil {
		t.Fatalf("pst setup: %v", err)
	}
	pkZM, vkZM, assignment2, _ := zeromorphKeys(t, mu)
	_ = assignment2

	zmProof, _, err := hyperplonk.ProveWithContext(context.Background(), pkZM, assignment, nil)
	if err != nil {
		t.Fatalf("zeromorph prove: %v", err)
	}
	pstProof, _, err := hyperplonk.ProveWithContext(context.Background(), pkPST, assignment, nil)
	if err != nil {
		t.Fatalf("pst prove: %v", err)
	}
	if err := hyperplonk.Verify(vkPST, pub, zmProof); err == nil {
		t.Fatal("PST key accepted a Zeromorph proof")
	} else if !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("want a scheme-mismatch error, got: %v", err)
	}
	if err := hyperplonk.Verify(vkZM, pub, pstProof); err == nil {
		t.Fatal("Zeromorph key accepted a PST proof")
	} else if !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("want a scheme-mismatch error, got: %v", err)
	}
	// The prover-side pin works the same way.
	if _, _, err := hyperplonk.ProveWithContext(context.Background(), pkZM, assignment,
		&hyperplonk.ProveOptions{Scheme: "pst"}); err == nil {
		t.Fatal("pst-pinned prove ran against a zeromorph key")
	}
}

// TestVersion2PSTRejected: PST proofs are canonically version 1; a
// hand-built version-2 blob carrying the PST tag must be rejected so
// every accepted blob has exactly one encoding.
func TestVersion2PSTRejected(t *testing.T) {
	const mu = 3
	circuit, assignment, _, err := workload.SyntheticSeed(mu, 7)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	srs := pcs.SetupFromSeed([]byte{0xd1, byte(mu)}, circuit.Mu)
	pk, _, err := hyperplonk.SetupWithPCS(circuit, srs)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	proof, _, err := hyperplonk.ProveWithContext(context.Background(), pk, assignment, nil)
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// Rebuild as version 2 with an explicit PST tag.
	v2 := make([]byte, 0, len(blob)+1)
	v2 = append(v2, blob[:4]...)
	v2 = append(v2, 2, blob[5], 0)
	v2 = append(v2, blob[6:]...)
	var back hyperplonk.Proof
	if err := back.UnmarshalBinary(v2); err == nil {
		t.Fatal("version-2 PST blob accepted")
	}
}
