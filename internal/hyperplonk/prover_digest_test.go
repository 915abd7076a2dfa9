package hyperplonk_test

import (
	"bytes"
	"context"
	"testing"

	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/workload"
)

// TestProofDigestsAcrossContexts is the kernel layer's acceptance gate:
// for every problem size μ in 2..12 the serialized proof must be
// byte-identical between a serial run and a run with a wide worker pool
// and a private arena. Field arithmetic is exact, so any divergence is a
// bug in the kernel layer, not noise. (That the bytes also match the
// round-by-round and Pippenger references is pinned a layer down, by the
// sumcheck and msm reference tests and the digest pins in this package.)
func TestProofDigestsAcrossContexts(t *testing.T) {
	if testing.Short() {
		t.Skip("full proofs are slow")
	}
	const seed = 7
	for mu := 2; mu <= 12; mu++ {
		circuit, assignment, pub, err := workload.SyntheticSeed(mu, seed)
		if err != nil {
			t.Fatalf("mu=%d: workload: %v", mu, err)
		}
		// Small synthetic workloads pad up to a minimum cube; size the
		// SRS for the compiled circuit, not the requested μ.
		srs := pcs.SetupFromSeed([]byte{0xd1, byte(mu)}, circuit.Mu)
		pk, vk, err := hyperplonk.SetupWithPCS(circuit, srs)
		if err != nil {
			t.Fatalf("mu=%d: setup: %v", mu, err)
		}
		variants := []struct {
			name string
			opts *hyperplonk.ProveOptions
		}{
			{"serial", &hyperplonk.ProveOptions{Exec: poly.Options{Procs: 1}}},
			{"parallel", &hyperplonk.ProveOptions{Exec: poly.Options{Procs: 8, Scratch: poly.NewScratch()}}},
		}
		var want []byte
		for _, v := range variants {
			proof, _, err := hyperplonk.ProveWithContext(context.Background(), pk, assignment, v.opts)
			if err != nil {
				t.Fatalf("mu=%d %s: prove: %v", mu, v.name, err)
			}
			blob, err := proof.MarshalBinary()
			if err != nil {
				t.Fatalf("mu=%d %s: marshal: %v", mu, v.name, err)
			}
			if want == nil {
				want = blob
				// The reference proof must actually verify.
				if err := hyperplonk.Verify(vk, pub, proof); err != nil {
					t.Fatalf("mu=%d %s: verify: %v", mu, v.name, err)
				}
				continue
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("mu=%d: %s proof bytes differ from the serial run", mu, v.name)
			}
		}
	}
}
