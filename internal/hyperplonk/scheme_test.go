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

// TestZeromorphProofWireRoundTrip checks the tagged layout: scheme and
// quotient shape survive a marshal/unmarshal cycle and the decoded proof
// still verifies.
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
	if blob[4] != 3 || blob[6] != byte(pcs.SchemeZeromorph) {
		t.Fatalf("zeromorph proof marshaled as version %d scheme %d, want 3 and %d", blob[4], blob[6], pcs.SchemeZeromorph)
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

// TestOldProofVersionsRejected: ZKSP versions 1 (PST, no scheme byte) and
// 2 (scheme-tagged) carried three sumchecks, rounds with p(1) and 22
// evaluations. A blob under either header must be refused by version,
// before its body is read, and a version-3 blob whose first round still
// carries p(1) by its length.
func TestOldProofVersionsRejected(t *testing.T) {
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
	for _, old := range [][]byte{
		append([]byte{0x5a, 0x4b, 0x53, 0x50, 1, blob[5]}, blob[7:]...),          // version 1: no scheme byte
		append([]byte{0x5a, 0x4b, 0x53, 0x50, 2, blob[5], blob[6]}, blob[7:]...), // version 2
	} {
		var back hyperplonk.Proof
		if err := back.UnmarshalBinary(old); err == nil || !strings.Contains(err.Error(), "unsupported proof version") {
			t.Fatalf("version-%d blob: got %v, want an unsupported-version error", old[4], err)
		}
	}
	rounds := 7 + 5*96 // the first round value follows the header and the commitments
	long := append(append(append([]byte(nil), blob[:rounds]...), make([]byte, 32)...), blob[rounds:]...)
	var back hyperplonk.Proof
	if err := back.UnmarshalBinary(long); err == nil {
		t.Fatal("a round of the old length decoded")
	}
}
