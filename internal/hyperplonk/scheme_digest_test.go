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
// captured before the PCS interface landed, and re-pinned for ZKSP
// version 3, whose one zero-check proves both identities, whose rounds
// leave out p(1) and whose verifying-key digest binds the scheme and the
// SRS. The interface must stay invisible on the wire — same transcript,
// same quotients — so only a protocol change may move these digests.
var pstProofDigests = map[int]string{
	2:  "bb86aa86bcf3b2985593014c6ea91c272acc0dc086ec38aadb0bb61fb8d0fbf2",
	3:  "c0685b7f837d5af6ad054f5e3a8ad4b1be8bd481b7f4fcb9d1901fbf5221d11c",
	4:  "13e0ef449b3f73540ae701e0573a46bd3d74b5d5effed82c3df17d52ec231f93",
	5:  "a65fea638b9241b5053d70250fea4e54ca0ebd0ed309b426940da5766c9b5896",
	6:  "3347af3794040873fa7bc6bcf27cbce683f048e8617d015d42cab46e346dd93b",
	7:  "8650c6dc3012c6c8eb68967cb71d82d58b83299edd757be43dbec690da3344c9",
	8:  "74fc5f988530969b43ab343fffbd5b3aa6761d101c34bd5caec845193ff70dcd",
	9:  "a9036d332812836c283409dea569838838fc06fc30f5b29f85f2f5bb847233ce",
	10: "33c02f6f93afaf253ba89602e6860ac746b62b0696f4ff422c3f3956ca04b705",
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
