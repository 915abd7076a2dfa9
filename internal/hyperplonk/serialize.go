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

// Proof wire format, version 3 (fixed-endian):
//
//	u32 magic "ZKSP" | u8 version | u8 mu | u8 scheme   7-byte header
//	5 × G1 (96 B uncompressed)                          commitments
//	2 sumchecks: per round (5, 2) × 32 B                round values, p(1) left out
//	19 × 32 B                                           batch evaluations
//	openingQuotientCount(scheme, mu) × G1               opening quotients
//
// The quotient count is scheme-dependent (Zeromorph: mu+2 — the
// per-variable quotients plus the batched degree-check commitment and
// the KZG witness). Versions 1 and 2 carried three sumchecks, rounds
// with p(1) and 22 evaluations; they are refused.
//
// Points are serialized uncompressed (X||Y big-endian, zero for infinity)
// and validated on deserialization.

const (
	proofMagic     = 0x5a4b5350 // "ZKSP"
	proofVersion   = 3
	proofHeaderLen = 7
	g1Len          = 96
	frLen          = 32
)

// roundEvalCounts is the values each sumcheck sends per round, in wire
// order: its degree, p(1) being derived.
var roundEvalCounts = [2]int{identityCheckDegree, openCheckDegree}

// ProofSize is the encoded size, header excluded, of a proof over 2^mu
// gates under scheme: the layout MarshalBinary writes.
func ProofSize(scheme pcs.Scheme, mu int) (int, error) {
	nQuot, err := openingQuotientCount(scheme, mu)
	if err != nil {
		return 0, err
	}
	size := 5*g1Len + NumEvaluations*frLen + nQuot*g1Len
	for _, c := range roundEvalCounts {
		size += mu * c * frLen
	}
	return size, nil
}

// ProofSizeBytes reports the serialized proof size, header excluded: the
// metric in Table 4 (5.09 KB at 2^24 gates for HyperPlonk). It is 0 for
// a proof of an unknown scheme.
func (p *Proof) ProofSizeBytes() int {
	size, _ := ProofSize(p.Scheme, len(p.OpenCheck.Rounds))
	return size
}

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

// MarshalBinary serializes the proof.
func (p *Proof) MarshalBinary() ([]byte, error) {
	mu := len(p.OpenCheck.Rounds)
	if mu == 0 || mu > 64 {
		return nil, fmt.Errorf("hyperplonk: implausible mu=%d", mu)
	}
	size, err := ProofSize(p.Scheme, mu)
	if err != nil {
		return nil, err
	}
	wantQ, _ := openingQuotientCount(p.Scheme, mu)
	if len(p.Opening.Quotients) != wantQ {
		return nil, fmt.Errorf("hyperplonk: %v proof has %d opening quotients, want %d", p.Scheme, len(p.Opening.Quotients), wantQ)
	}
	scs := p.sumchecks()
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
	w.Grow(proofHeaderLen + size)
	var hdr [proofHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], proofMagic)
	hdr[4] = proofVersion
	hdr[5] = byte(mu)
	hdr[6] = byte(p.Scheme)
	w.Write(hdr[:])
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
func (p *Proof) UnmarshalBinary(data []byte) error {
	if len(data) < proofHeaderLen {
		return io.ErrUnexpectedEOF
	}
	hdr := data[:proofHeaderLen]
	if binary.BigEndian.Uint32(hdr[:4]) != proofMagic {
		return errors.New("hyperplonk: bad proof magic")
	}
	if hdr[4] != proofVersion {
		return fmt.Errorf("hyperplonk: unsupported proof version %d", hdr[4])
	}
	mu := int(hdr[5])
	if mu == 0 || mu > 64 {
		return errors.New("hyperplonk: implausible mu")
	}
	scheme := pcs.Scheme(hdr[6])
	if !scheme.Valid() {
		return fmt.Errorf("hyperplonk: unknown proof scheme tag %d", hdr[6])
	}
	size, err := ProofSize(scheme, mu)
	if err != nil {
		return err
	}
	if len(data) != proofHeaderLen+size {
		return fmt.Errorf("hyperplonk: %d-byte %v proof at mu=%d, want %d bytes", len(data), scheme, mu, proofHeaderLen+size)
	}
	nQuot, _ := openingQuotientCount(scheme, mu)
	r := bytes.NewReader(data[proofHeaderLen:])
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
	for i, sc := range p.sumchecks() {
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
	return nil
}
