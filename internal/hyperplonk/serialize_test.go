package hyperplonk

import (
	"context"
	"math/big"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
)

func TestProofSerializationRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("full proof generation is slow")
	}
	circuit, assignment, pub, err := buildQuadratic(9)
	if err != nil {
		t.Fatal(err)
	}
	pk, vk, err := setupSeeded(circuit, 201)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := Prove(pk, assignment)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Proof
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	// The deserialized proof must verify.
	if err := Verify(vk, pub, &back); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
	// And re-serialize to identical bytes.
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("serialization not canonical")
	}

	// The size accounting follows the encoder at every size, under both
	// schemes.
	for mu := 2; mu <= 8; mu++ {
		b := NewBuilder()
		x := b.PublicInput(ff.NewFr(3))
		for b.NumGatesUsed() <= 1<<(mu-1) {
			x = b.Add(x, x)
		}
		circuit, assignment, _, err := b.Compile()
		if err != nil || circuit.Mu != mu {
			t.Fatalf("mu=%d: compiled mu=%d: %v", mu, circuit.Mu, err)
		}
		for _, scheme := range []pcs.Scheme{pcs.SchemePST, pcs.SchemeZeromorph} {
			backend, err := pcs.NewBackend(scheme, []byte{0x5e, byte(mu)}, mu)
			if err != nil {
				t.Fatal(err)
			}
			pk, _, err := SetupWithPCS(circuit, backend)
			if err != nil {
				t.Fatal(err)
			}
			proof, _, err := ProveWithContext(context.Background(), pk, assignment, &ProveOptions{})
			if err != nil {
				t.Fatal(err)
			}
			blob, err := proof.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if len(blob) != proof.ProofSizeBytes()+proofHeaderLen {
				t.Fatalf("mu=%d %v: serialized %d bytes, accounting says %d+%d", mu, scheme, len(blob), proof.ProofSizeBytes(), proofHeaderLen)
			}
		}
	}
}

func TestProofDeserializationRejectsGarbage(t *testing.T) {
	var p Proof
	if err := p.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("accepted truncated header")
	}
	if err := p.UnmarshalBinary(make([]byte, 4096)); err == nil {
		t.Fatal("accepted zero garbage")
	}
	// Valid magic/version but truncated body.
	blob := []byte{0x5a, 0x4b, 0x53, 0x50, 3, 4, 0, 0}
	if err := p.UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted truncated body")
	}
}

// TestProofDeserializationRejectsAllTruncations is the regression test for
// the readPoint short-read bug: bytes.Reader.Read may return n < len(buf)
// with a nil error at the end of the input, so a truncated proof could
// zero-pad its final point or scalar instead of failing. Every strict
// prefix of a valid proof must be rejected.
func TestProofDeserializationRejectsAllTruncations(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a real proof")
	}
	circuit, assignment, _, err := buildQuadratic(6)
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := setupSeeded(circuit, 204)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := Prove(pk, assignment)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n++ {
		var back Proof
		if err := back.UnmarshalBinary(blob[:n]); err == nil {
			t.Fatalf("accepted proof truncated to %d of %d bytes", n, len(blob))
		}
	}
}

func TestProofDeserializationRejectsOffCurvePoint(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a real proof")
	}
	circuit, assignment, _, err := buildQuadratic(6)
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := setupSeeded(circuit, 202)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := Prove(pk, assignment)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob[proofHeaderLen+10] ^= 0xff // corrupt the first witness commitment's X
	var back Proof
	if err := back.UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted off-curve point")
	}
}

func TestProofDeserializationRejectsNonCanonicalScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a real proof")
	}
	circuit, assignment, _, err := buildQuadratic(6)
	if err != nil {
		t.Fatal(err)
	}
	pk, _, err := setupSeeded(circuit, 203)
	if err != nil {
		t.Fatal(err)
	}
	proof, _, err := Prove(pk, assignment)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// First sumcheck scalar starts after header + 5 points; overwrite with
	// an all-ones value >= r.
	off := proofHeaderLen + 5*96
	for i := 0; i < 32; i++ {
		blob[off+i] = 0xff
	}
	var back Proof
	if err := back.UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted non-canonical field element")
	}

	// The point analogue: x+p fits in 48 bytes and names the same
	// coordinate as x, so each of the two coordinates of the first witness
	// commitment gets a second spelling that must be refused.
	good, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, coord := range []int{0, 48} {
		blob := append([]byte{}, good...)
		enc := blob[proofHeaderLen+coord : proofHeaderLen+coord+48]
		v := new(big.Int).SetBytes(enc)
		v.Add(v, ff.FpModulusBig())
		v.FillBytes(enc)
		if err := back.UnmarshalBinary(blob); err == nil {
			t.Fatalf("accepted point coordinate at +%d encoded as value+p", coord)
		}
	}
}

// offSubgroupPoint returns the wire bytes of a point that satisfies the
// curve equation but lies outside the order-r subgroup (the cofactor of
// E(Fp) is ~2^126, so the first curve point found from a small x does).
func offSubgroupPoint(t testing.TB) [96]byte {
	t.Helper()
	var p curve.G1Affine
	four := ff.NewFp(4)
	for x := uint64(1); ; x++ {
		p.X.SetUint64(x)
		var rhs ff.Fp
		rhs.Square(&p.X)
		rhs.Mul(&rhs, &p.X)
		rhs.Add(&rhs, &four)
		if p.Y.Sqrt(&rhs) && !p.IsInSubgroup() {
			break
		}
	}
	if !p.IsOnCurve() {
		t.Fatal("test point is off the curve")
	}
	return p.Bytes()
}

// g1SlotOffsets lists the byte offset of every G1 point in a proof blob:
// five commitments after the header, the opening quotients at the end.
func g1SlotOffsets(blob []byte, quotients int) []int {
	var offs []int
	for i := 0; i < 5; i++ {
		offs = append(offs, proofHeaderLen+i*96)
	}
	for i := quotients; i > 0; i-- {
		offs = append(offs, len(blob)-i*96)
	}
	return offs
}

// TestProofDeserializationRejectsOffSubgroupPoint: the verifier moves
// scalars across pairings, which is sound only for points of order r, so
// an on-curve point outside G1 must be refused in every G1 slot of both
// schemes' proofs — by the decoder, before any verifier sees it.
func TestProofDeserializationRejectsOffSubgroupPoint(t *testing.T) {
	bad := offSubgroupPoint(t)
	pst, err := fuzzSeedProof()
	if err != nil {
		t.Fatal(err)
	}
	zm, err := fuzzSeedProofZeromorph()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		blob      []byte
		quotients int
	}{
		{"pst", pst, int(pst[5])},
		{"zeromorph", zm, int(zm[5]) + 2},
	} {
		var back Proof
		if err := back.UnmarshalBinary(c.blob); err != nil {
			t.Fatalf("%s: valid proof rejected: %v", c.name, err)
		}
		offs := g1SlotOffsets(c.blob, c.quotients)
		if want := 5 + len(back.Opening.Quotients); len(offs) != want {
			t.Fatalf("%s: %d G1 slots enumerated, proof holds %d", c.name, len(offs), want)
		}
		for _, off := range offs {
			m := append([]byte{}, c.blob...)
			copy(m[off:], bad[:])
			if err := back.UnmarshalBinary(m); err == nil {
				t.Fatalf("%s: accepted an off-subgroup point at byte %d", c.name, off)
			}
		}
	}
}
