package hyperplonk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/pcs"
	"zkspeed/internal/sumcheck"
)

// Proof wire format (versioned, fixed-endian):
//
//	u32 magic "ZKSP" | u8 version | u8 mu [| u8 scheme]
//	5 × G1 (96 B uncompressed)                 commitments
//	3 sumchecks: per round, fixed eval counts  (5, 6, 3) × 32 B
//	22 × 32 B                                  batch evaluations
//	openingQuotientCount(scheme, mu) × G1      opening quotients
//
// Version 1 has no scheme byte and is always PST with exactly mu
// quotients — every blob issued before the PCS interface landed decodes
// unchanged, and PST proofs still marshal as version 1 so their bytes
// are identical pre/post refactor. Version 2 inserts a scheme tag after
// mu; the quotient count is scheme-dependent (Zeromorph: mu+2 — the
// per-variable quotients plus the batched degree-check commitment and
// the KZG witness).
//
// Points are serialized uncompressed (X||Y big-endian, zero for infinity)
// and validated on deserialization.

const (
	proofMagic         = 0x5a4b5350 // "ZKSP"
	proofVersionPST    = 1
	proofVersionTagged = 2
)

// openingQuotientCount is the opening-proof shape each scheme commits to
// on the wire.
func openingQuotientCount(scheme pcs.Scheme, mu int) (int, error) {
	switch scheme {
	case pcs.SchemePST:
		return mu, nil
	case pcs.SchemeZeromorph:
		return mu + 2, nil
	default:
		return 0, fmt.Errorf("hyperplonk: no wire format for scheme %v", scheme)
	}
}

var roundEvalCounts = [3]int{zeroCheckDegree + 1, permCheckDegree + 1, openCheckDegree + 1}

func writePoint(w *bytes.Buffer, p *curve.G1Affine) {
	b := p.Bytes()
	w.Write(b[:])
}

func readPoint(r *bytes.Reader, p *curve.G1Affine) error {
	var buf [96]byte
	// io.ReadFull, not Read: a bytes.Reader may return n < 96 with a nil
	// error on truncated input, which would silently parse a zero-padded
	// partial point instead of failing with ErrUnexpectedEOF.
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	allZero := true
	for _, v := range buf {
		if v != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		*p = curve.G1Infinity()
		return nil
	}
	p.Inf = false
	if !p.X.SetCanonicalBytes(buf[:48]) || !p.Y.SetCanonicalBytes(buf[48:]) {
		return errors.New("hyperplonk: non-canonical point coordinate")
	}
	// On the curve is not enough: G1 has a cofactor, and the verifier moves
	// scalars across pairings, which is sound only for points of order r.
	if !p.IsInSubgroup() {
		return errors.New("hyperplonk: deserialized point not in G1 (off the curve or outside its order-r subgroup)")
	}
	return nil
}

func writeFr(w *bytes.Buffer, v *ff.Fr) {
	b := v.Bytes()
	w.Write(b[:])
}

func readFr(r *bytes.Reader, v *ff.Fr) error {
	var buf [32]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	if !v.SetCanonicalBytes(buf[:]) {
		return errors.New("hyperplonk: non-canonical field element")
	}
	return nil
}

// MarshalBinary serializes the proof. PST proofs emit the legacy
// version-1 layout byte for byte; other schemes emit version 2 with the
// scheme tag.
func (p *Proof) MarshalBinary() ([]byte, error) {
	mu := len(p.ZeroCheck.Rounds)
	if mu == 0 || mu > 64 {
		return nil, fmt.Errorf("hyperplonk: implausible mu=%d", mu)
	}
	wantQ, err := openingQuotientCount(p.Scheme, mu)
	if err != nil {
		return nil, err
	}
	if len(p.Opening.Quotients) != wantQ {
		return nil, fmt.Errorf("hyperplonk: %v proof has %d opening quotients, want %d", p.Scheme, len(p.Opening.Quotients), wantQ)
	}
	scs := [3]sumcheck.Proof{p.ZeroCheck, p.PermCheck, p.OpenCheck}
	for i, sc := range scs {
		if len(sc.Rounds) != mu {
			return nil, fmt.Errorf("hyperplonk: sumcheck %d has %d rounds, want %d", i, len(sc.Rounds), mu)
		}
		for _, rd := range sc.Rounds {
			if len(rd.Evals) != roundEvalCounts[i] {
				return nil, fmt.Errorf("hyperplonk: sumcheck %d round has %d evals", i, len(rd.Evals))
			}
		}
	}
	var w bytes.Buffer
	if p.Scheme == pcs.SchemePST {
		var hdr [6]byte
		binary.BigEndian.PutUint32(hdr[:4], proofMagic)
		hdr[4] = proofVersionPST
		hdr[5] = byte(mu)
		w.Write(hdr[:])
	} else {
		var hdr [7]byte
		binary.BigEndian.PutUint32(hdr[:4], proofMagic)
		hdr[4] = proofVersionTagged
		hdr[5] = byte(mu)
		hdr[6] = byte(p.Scheme)
		w.Write(hdr[:])
	}
	for i := range p.WitnessComms {
		writePoint(&w, &p.WitnessComms[i].P)
	}
	writePoint(&w, &p.PhiComm.P)
	writePoint(&w, &p.PiComm.P)
	for _, sc := range scs {
		for _, rd := range sc.Rounds {
			for i := range rd.Evals {
				writeFr(&w, &rd.Evals[i])
			}
		}
	}
	for i := range p.Evals {
		writeFr(&w, &p.Evals[i])
	}
	for i := range p.Opening.Quotients {
		writePoint(&w, &p.Opening.Quotients[i])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary deserializes and structurally validates a proof.
// Version-1 blobs (pre-interface) decode as PST.
func (p *Proof) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(hdr[:4]) != proofMagic {
		return errors.New("hyperplonk: bad proof magic")
	}
	scheme := pcs.SchemePST
	switch hdr[4] {
	case proofVersionPST:
	case proofVersionTagged:
		var tag [1]byte
		if _, err := io.ReadFull(r, tag[:]); err != nil {
			return err
		}
		scheme = pcs.Scheme(tag[0])
		if !scheme.Valid() {
			return fmt.Errorf("hyperplonk: unknown proof scheme tag %d", tag[0])
		}
		// PST proofs always marshal as version 1; a version-2 PST blob is
		// a second encoding of the same proof, and accepting it would
		// break the canonical-bytes invariant the fuzzer enforces.
		if scheme == pcs.SchemePST {
			return errors.New("hyperplonk: non-canonical PST proof (version 2)")
		}
	default:
		return fmt.Errorf("hyperplonk: unsupported proof version %d", hdr[4])
	}
	mu := int(hdr[5])
	if mu == 0 || mu > 64 {
		return errors.New("hyperplonk: implausible mu")
	}
	nQuot, err := openingQuotientCount(scheme, mu)
	if err != nil {
		return err
	}
	p.Scheme = scheme
	for i := range p.WitnessComms {
		if err := readPoint(r, &p.WitnessComms[i].P); err != nil {
			return err
		}
	}
	if err := readPoint(r, &p.PhiComm.P); err != nil {
		return err
	}
	if err := readPoint(r, &p.PiComm.P); err != nil {
		return err
	}
	scs := [3]*sumcheck.Proof{&p.ZeroCheck, &p.PermCheck, &p.OpenCheck}
	for i, sc := range scs {
		sc.Rounds = make([]sumcheck.RoundPoly, mu)
		for k := 0; k < mu; k++ {
			sc.Rounds[k].Evals = make([]ff.Fr, roundEvalCounts[i])
			for j := range sc.Rounds[k].Evals {
				if err := readFr(r, &sc.Rounds[k].Evals[j]); err != nil {
					return err
				}
			}
		}
	}
	for i := range p.Evals {
		if err := readFr(r, &p.Evals[i]); err != nil {
			return err
		}
	}
	p.Opening = pcs.OpeningProof{Quotients: make([]curve.G1Affine, nQuot)}
	for i := range p.Opening.Quotients {
		if err := readPoint(r, &p.Opening.Quotients[i]); err != nil {
			return err
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("hyperplonk: %d trailing bytes", r.Len())
	}
	return nil
}
