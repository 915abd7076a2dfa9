package hyperplonk_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/workload"
)

// pstProofDigests pins the serialized PST proof bytes from before the PCS
// interface landed: SHA-256 of MarshalBinary for the deterministic
// workload below, captured on the pre-refactor tree. The interface
// extraction must be invisible on the wire — same transcript, same
// quotients, same version-1 header — so these digests must never change.
var pstProofDigests = map[int]string{
	2:  "6813e80924786f887748dd02185b80191494ba4938b9ac91119038c47082eaa3",
	3:  "8be3082c61d35a1b6ffebfe98630fd66262d5f40d9746661cfd0b21d1899ab44",
	4:  "88d101ba87e475e3bcc880e26b8965f8314d9da8f8cda8379673858dd56c63e6",
	5:  "e010765a299c7ee3f2e49d3db92349f13a69fc7ce2e75faa1999dcff63dbfd02",
	6:  "15c7a926221d1455efc932e5fd36494e5dc7a5098c3eae110f53e6c34ee09529",
	7:  "a30a7db0b2352d2ac90fbc577a56d148ea3caec4da6b47f60dfe6b74bbeb517f",
	8:  "bce4214f5aa7cdc8e7a457469154b34737317c62b98602b72c94f3ce76ee1503",
	9:  "d0bf5bfe5173148927f09d2ae71f65832879007f5aa0d3f53787b90d24874d49",
	10: "b876588f4799ba17e2327b9b486dcf721fb891459ac582bd4c17468e3dcb6129",
}

// TestPSTProofBytesUnchangedByInterface is the API redesign's acceptance
// gate: routing the prover through pcs.PCS must leave PST proof bytes
// identical to the direct-SRS code path it replaced.
func TestPSTProofBytesUnchangedByInterface(t *testing.T) {
	if testing.Short() {
		t.Skip("full proofs are slow")
	}
	const seed = 7
	for mu := 2; mu <= 10; mu++ {
		circuit, assignment, pub, err := workload.SyntheticSeed(mu, seed)
		if err != nil {
			t.Fatalf("mu=%d: workload: %v", mu, err)
		}
		srs := pcs.SetupFromSeed([]byte{0xd1, byte(mu)}, circuit.Mu)
		pk, vk, err := hyperplonk.SetupWithPCS(circuit, srs)
		if err != nil {
			t.Fatalf("mu=%d: setup: %v", mu, err)
		}
		proof, _, err := hyperplonk.ProveWithContext(context.Background(), pk, assignment,
			&hyperplonk.ProveOptions{Exec: poly.Options{Procs: 4}})
		if err != nil {
			t.Fatalf("mu=%d: prove: %v", mu, err)
		}
		if err := hyperplonk.Verify(vk, pub, proof); err != nil {
			t.Fatalf("mu=%d: verify: %v", mu, err)
		}
		blob, err := proof.MarshalBinary()
		if err != nil {
			t.Fatalf("mu=%d: marshal: %v", mu, err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != pstProofDigests[mu] {
			t.Errorf("mu=%d: PST proof bytes changed: digest %s, want %s", mu, got, pstProofDigests[mu])
		}
	}
}
