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
	blob := []byte{0x5a, 0x4b, 0x53, 0x50, proofVersion, 4, 0, 0}
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
	off := proofHeaderLen + 5*g1Len
	for i := 0; i < 32; i++ {
		blob[off+i] = 0xff
	}
	var back Proof
	if err := back.UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted non-canonical field element")
	}

	// The point analogue: where x+p still fits below the flag bits, it
	// names the same x, a second spelling that must be refused. The first
	// commitment slot gets a G1 point whose x is small enough, which
	// decodes; its x+p spelling must not.
	good, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	limit := new(big.Int).Lsh(big.NewInt(1), 381)
	g := curve.G1Generator()
	var acc curve.G1Jac
	var pt curve.G1Affine
	acc.FromAffine(&g)
	for {
		acc.AddMixed(&g)
		pt.FromJacobian(&acc)
		if new(big.Int).Add(pt.X.BigInt(), ff.FpModulusBig()).Cmp(limit) < 0 {
			break
		}
	}
	enc := pt.BytesCompressed()
	blob = append([]byte{}, good...)
	copy(blob[proofHeaderLen:], enc[:])
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatalf("a G1 point with a small x refused: %v", err)
	}
	flags := enc[0] & 0xe0
	v := new(big.Int).Add(pt.X.BigInt(), ff.FpModulusBig())
	v.FillBytes(blob[proofHeaderLen : proofHeaderLen+g1Len])
	blob[proofHeaderLen] |= flags
	if err := back.UnmarshalBinary(blob); err == nil {
		t.Fatal("accepted a point with x encoded as x+p")
	}
}

// TestProofDeserializationRejectsBadPointFlags: in every G1 slot, a
// cleared compression flag and a set infinity flag beside an x are
// refused, and a flipped sign flag decodes to the negated point — a
// valid G1 point, so the decoder accepts it and Verify must not.
func TestProofDeserializationRejectsBadPointFlags(t *testing.T) {
	fx, err := pstFixture()
	if err != nil {
		t.Fatal(err)
	}
	var good Proof
	if err := good.UnmarshalBinary(fx.blob); err != nil {
		t.Fatal(err)
	}
	for _, off := range g1SlotOffsets(fx.blob, len(good.Opening.Quotients)) {
		for _, c := range []struct {
			name   string
			flip   byte
			decode bool
		}{
			{"compression flag cleared", 0x80, false},
			{"infinity flag set", 0x40, false},
			{"sign flag flipped", 0x20, true},
		} {
			m := append([]byte{}, fx.blob...)
			m[off] ^= c.flip
			var back Proof
			err := back.UnmarshalBinary(m)
			if !c.decode {
				if err == nil {
					t.Fatalf("byte %d, %s: accepted", off, c.name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("byte %d, %s: the negated point was refused: %v", off, c.name, err)
			}
			if err := Verify(fx.vk, fx.pub, &back); err == nil {
				t.Fatalf("byte %d, %s: verified", off, c.name)
			}
		}
	}
}

// offSubgroupPoint returns the wire bytes of a point that satisfies the
// curve equation but lies outside the order-r subgroup (the cofactor of
// E(Fp) is ~2^126, so the first curve point found from a small x does).
func offSubgroupPoint(t testing.TB) [g1Len]byte {
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
	return p.BytesCompressed()
}

// g1SlotOffsets lists the byte offset of every G1 point in a proof blob:
// five commitments after the header, the opening quotients at the end.
func g1SlotOffsets(blob []byte, quotients int) []int {
	var offs []int
	for i := 0; i < 5; i++ {
		offs = append(offs, proofHeaderLen+i*g1Len)
	}
	for i := quotients; i > 0; i-- {
		offs = append(offs, len(blob)-i*g1Len)
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
