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

// pstProofDigests pins the serialized PST proof bytes: SHA-256 of
// MarshalBinary for the deterministic workload below. They were first
// captured before the PCS interface landed, re-pinned for ZKSP version
// 3, whose one zero-check proves both identities, whose rounds leave out
// p(1) and whose verifying-key digest binds the scheme and the SRS, and
// re-pinned for version 4, whose identity rounds carry h, whose proof
// leaves out the two evaluations the verifier supplies and whose points
// are compressed. The interface must stay invisible on the wire — same
// transcript, same quotients — so only a protocol change may move these
// digests.
var pstProofDigests = map[int]string{
	2:  "d2ca433381b7607f708e1a7c68cd736c0daa6e67af0dc6bd2d0f856d52dbf573",
	3:  "b5eaa77df77d4257b3dc2920fbf51b33c369bd3bc4d2db01289ae7b55f0e9af3",
	4:  "72d54572104e00d396032b787ccb697e44ddd6c249edcd14b8f82ab22a3fa8c4",
	5:  "16b3d78bd02d639b4c3cc4101a9609a63e3dc48d6307014c5fa1070891239dba",
	6:  "12c4bb98bd3651ce84e6488a46ae3dd5dd1f5780af255dc2f994a9136a2089d7",
	7:  "d87c03760a2131b137477fbf0e085cda25ca32b696a827b782d76356a25c5336",
	8:  "3d19dfbefcb56cc65fe0290ac49f19bfcb7a7725b1918fc056c521d070e3478d",
	9:  "4f37a894d26d6ce9b0981d4a7761a609c701521e5c8ca41661389d963aa2961c",
	10: "7c7a8393a6e6988ce9cbc8a3fa3b16789ed775520f922cd0ad45f71f448460d8",
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
