package hyperplonk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/par"
	"zkspeed/internal/pcs"
	"zkspeed/internal/sumcheck"
)

// Proof wire format, version 4 (fixed-endian):
//
//	u32 magic "ZKSP" | u8 version | u8 mu | u8 scheme   7-byte header
//	5 × G1 (48 B compressed)                            commitments
//	2 sumchecks: per round (4, 2) × 32 B                round values, p(1) left out
//	17 × 32 B                                           batch evaluations
//	openingQuotientCount(scheme, mu) × G1               opening quotients
//
// The identity check's rounds carry h(0), h(2), h(3), h(4) of h = g/(P·L)
// (sumcheck.VerifyEq), the opening's p(0), p(2). The evaluations are the
// claim list's first 17: the verifier supplies the other two, π at the
// product root (1) and w1 at the public-input point (from the public
// inputs). The quotient count is scheme-dependent (Zeromorph: mu+2 — the
// per-variable quotients plus the batched degree-check commitment and
// the KZG witness). Versions 1 and 2 carried three sumchecks, rounds
// with p(1) and 22 evaluations, version 3 rounds of g, 19 evaluations
// and 96-byte points; all three are refused.
//
// Points are serialized compressed (curve.G1Affine.BytesCompressed: x with
// the compression, infinity and sign flags in its top three bits) and
// validated on deserialization, decompression and subgroup check spread
// over GOMAXPROCS goroutines. The transcript still absorbs the
// uncompressed form, so the encoding touches no challenge.

const (
	proofMagic     = 0x5a4b5350 // "ZKSP"
	proofVersion   = 4
	proofHeaderLen = 7
	g1Len          = curve.G1CompressedLen
	frLen          = 32
)

// roundEvalCounts is the values each sumcheck sends per round, in wire
// order: the degree of its round polynomial, p(1) being derived.
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
	b := p.BytesCompressed()
	w.Write(b[:])
}

// pointReader collects a proof's point encodings as it parses, so that
// decode can check them all at once.
type pointReader struct {
	encs []byte // g1Len bytes per point, in wire order
	dst  []*curve.G1Affine
}

func newPointReader(n int) *pointReader {
	return &pointReader{encs: make([]byte, 0, n*g1Len), dst: make([]*curve.G1Affine, 0, n)}
}

func (pr *pointReader) read(r *bytes.Reader, p *curve.G1Affine) error {
	var buf [g1Len]byte
	// io.ReadFull, not Read: a bytes.Reader may return n < len(buf) with a
	// nil error on truncated input, which would silently parse a
	// zero-padded partial point instead of failing with ErrUnexpectedEOF.
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return err
	}
	pr.encs = append(pr.encs, buf[:]...)
	pr.dst = append(pr.dst, p)
	return nil
}

// decode decompresses and subgroup-checks every collected point over
// GOMAXPROCS goroutines — the cost of a decode is these checks, ~85 µs a
// point — and returns the error of the first bad point in wire order.
func (pr *pointReader) decode() error {
	n := len(pr.dst)
	errs := make([]error, n)
	par.Each(n, par.Procs(0), nil, func(_ struct{}, i int) {
		errs[i] = pr.dst[i].SetBytesCompressed(pr.encs[i*g1Len : (i+1)*g1Len])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("hyperplonk: point %d: %w", i, err)
		}
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
	pr := newPointReader(5 + nQuot)
	p.Scheme = scheme
	for i := range p.WitnessComms {
		if err := pr.read(r, &p.WitnessComms[i].P); err != nil {
			return err
		}
	}
	if err := pr.read(r, &p.PhiComm.P); err != nil {
		return err
	}
	if err := pr.read(r, &p.PiComm.P); err != nil {
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
		if err := pr.read(r, &p.Opening.Quotients[i]); err != nil {
			return err
		}
	}
	return pr.decode()
}
