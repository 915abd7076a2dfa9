package hyperplonk

import (
	"bytes"
	"sync"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
)

// fuzzFixture is one small valid PST proof with the key and public inputs
// it verifies under.
type fuzzFixture struct {
	vk   *VerifyingKey
	pub  []ff.Fr
	blob []byte
}

// pstFixture lazily builds the μ=3 proof shared by the fuzz targets, so
// the corpus starts from structurally valid wire bytes and mutation
// explores the interesting boundaries (header, point and scalar
// validation, verification) instead of only the magic check.
var pstFixture = sync.OnceValues(func() (fuzzFixture, error) {
	circuit, assignment, pub, err := buildQuadratic(5)
	if err != nil {
		return fuzzFixture{}, err
	}
	pk, vk, err := setupSeeded(circuit, 77)
	if err != nil {
		return fuzzFixture{}, err
	}
	proof, _, err := Prove(pk, assignment)
	if err != nil {
		return fuzzFixture{}, err
	}
	blob, err := proof.MarshalBinary()
	return fuzzFixture{vk, pub, blob}, err
})

// fuzzSeedProof returns the wire bytes of the shared PST proof.
func fuzzSeedProof() ([]byte, error) {
	fx, err := pstFixture()
	return fx.blob, err
}

// fuzzSeedProofZeromorph is the Zeromorph counterpart, so the corpus also
// reaches the mu+2-quotient path.
var fuzzSeedProofZeromorph = sync.OnceValues(func() ([]byte, error) {
	circuit, assignment, _, err := buildQuadratic(5)
	if err != nil {
		return nil, err
	}
	backend, err := pcs.NewBackend(pcs.SchemeZeromorph, []byte{0xfa, 0x11}, circuit.Mu)
	if err != nil {
		return nil, err
	}
	pk, _, err := SetupWithPCS(circuit, backend)
	if err != nil {
		return nil, err
	}
	proof, _, err := Prove(pk, assignment)
	if err != nil {
		return nil, err
	}
	return proof.MarshalBinary()
})

// FuzzProofUnmarshalBinary feeds mutated proof wire bytes to the
// deserializer — the exact bytes a malicious client can hand the proving
// service's /v1/verify endpoint. It must never panic, and anything it
// accepts must re-serialize canonically to the same bytes.
func FuzzProofUnmarshalBinary(f *testing.F) {
	if blob, err := fuzzSeedProof(); err == nil {
		f.Add(blob)
		// A few structured mutants seed the header paths.
		trunc := blob[:len(blob)/2]
		f.Add(trunc)
		zero := append([]byte{}, blob...)
		for i := proofHeaderLen; i < proofHeaderLen+g1Len && i < len(zero); i++ {
			zero[i] = 0
		}
		f.Add(zero)
		// On-curve points outside the order-r subgroup, in a commitment
		// slot and in the last opening quotient.
		bad := offSubgroupPoint(f)
		for _, off := range []int{proofHeaderLen, len(blob) - g1Len} {
			m := append([]byte{}, blob...)
			copy(m[off:], bad[:])
			f.Add(m)
		}
	}
	if blob, err := fuzzSeedProofZeromorph(); err == nil {
		f.Add(blob)
		bad := offSubgroupPoint(f)
		m := append([]byte{}, blob...)
		copy(m[len(m)-g1Len:], bad[:]) // the KZG witness π
		f.Add(m)
		// Scheme-tag mutants: PST over a Zeromorph body (the wrong
		// length) and unregistered tags, all rejected cleanly.
		for _, tag := range []byte{0, 7, 255} {
			m := append([]byte{}, blob...)
			m[6] = tag
			f.Add(m)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x5a, 0x4b, 0x53, 0x50, 1, 4})
	f.Add([]byte{0x5a, 0x4b, 0x53, 0x50, proofVersion, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Proof
		if err := p.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := p.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted proof failed to re-serialize: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("non-canonical accept: %d bytes in, %d bytes out", len(data), len(out))
		}
	})
}

// FuzzVerifyMutatedProof XORs a byte mask into the shared valid proof at
// an offset. Whatever still decodes and differs from the original must
// fail Verify: the decoder's canonical encoding makes a different blob a
// different proof.
func FuzzVerifyMutatedProof(f *testing.F) {
	fx, err := pstFixture()
	if err != nil {
		f.Fatal(err)
	}
	if fx.vk.Mu != 3 {
		f.Fatalf("fixture proof has mu=%d, want 3", fx.vk.Mu)
	}
	f.Add(uint16(0), []byte{})
	// The first sumcheck round value, a batch evaluation and the
	// scheme byte.
	f.Add(uint16(proofHeaderLen+5*g1Len+31), []byte{1})
	f.Add(uint16(len(fx.blob)-3*g1Len-NumEvaluations*32+31), []byte{2})
	f.Add(uint16(6), []byte{1})
	f.Fuzz(func(t *testing.T, off uint16, mask []byte) {
		m := append([]byte(nil), fx.blob...)
		for i, b := range mask {
			m[(int(off)+i)%len(m)] ^= b
		}
		if bytes.Equal(m, fx.blob) {
			return
		}
		var p Proof
		if err := p.UnmarshalBinary(m); err != nil {
			return
		}
		if err := Verify(fx.vk, fx.pub, &p); err == nil {
			t.Fatalf("mutated proof verified: mask %x at offset %d", mask, off)
		}
	})
}

// FuzzCircuitUnmarshalBinary covers the circuit registration payload the
// service accepts from untrusted clients.
func FuzzCircuitUnmarshalBinary(f *testing.F) {
	circuit, _, _, err := buildQuadratic(3)
	if err == nil {
		if blob, err := circuit.MarshalBinary(); err == nil {
			f.Add(blob)
			f.Add(blob[:len(blob)-7])
		}
	}
	f.Add([]byte{0x5a, 0x4b, 0x53, 0x43, 1, 2, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Circuit
		if err := c.UnmarshalBinary(data); err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("deserializer accepted an invalid circuit: %v", err)
		}
		out, err := c.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted circuit failed to re-serialize: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("non-canonical circuit accept")
		}
	})
}
