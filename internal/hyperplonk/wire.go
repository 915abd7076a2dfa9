package hyperplonk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// Circuit wire format (versioned, fixed-endian):
//
//	u32 magic "ZKSC" | u8 version | u8 mu | u32 numPublic
//	5 × 2^mu × 32 B        selector tables qL, qR, qM, qO, qC
//	3 × 2^mu × 32 B        wiring permutation σ1, σ2, σ3
//
// Witness wire format:
//
//	u32 magic "ZKSW" | u8 version | u8 mu
//	3 × 2^mu × 32 B        wire tables w1, w2, w3
//
// Field elements are canonical big-endian; deserialization rejects
// non-canonical encodings, size mismatches and (for circuits) any σ that
// is not a permutation of the 3·2^mu wire slots, so a deserialized circuit
// is always structurally valid.

const (
	circuitMagic = 0x5a4b5343 // "ZKSC"
	witnessMagic = 0x5a4b5357 // "ZKSW"
	wireVersion  = 1
	// wireMaxMu bounds the allocation a wire header can demand before any
	// table bytes are validated. 2^24 gates is past the paper's largest
	// problem size and keeps the worst-case circuit blob at 4 GiB.
	wireMaxMu = 24
)

func writeFrTable(w *bytes.Buffer, evals []ff.Fr) {
	for i := range evals {
		b := evals[i].Bytes()
		w.Write(b[:])
	}
}

// readFrTable decodes n canonical field elements into a fresh MLE table.
func readFrTable(r io.Reader, n int) (*poly.MLE, error) {
	evals := make([]ff.Fr, n)
	var buf [32]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return nil, err
		}
		if !evals[i].SetCanonicalBytes(buf[:]) {
			return nil, errors.New("hyperplonk: non-canonical field element")
		}
	}
	return poly.NewMLE(evals), nil
}

// MarshalBinary serializes the compiled circuit in the ZKSC wire format —
// the registration payload of the proving service.
func (c *Circuit) MarshalBinary() ([]byte, error) {
	if c.Mu < 1 || c.Mu > wireMaxMu {
		return nil, fmt.Errorf("hyperplonk: circuit mu=%d outside wire range [1,%d]", c.Mu, wireMaxMu)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.NumGates()
	var w bytes.Buffer
	w.Grow(10 + 8*n*32)
	var hdr [10]byte
	binary.BigEndian.PutUint32(hdr[:4], circuitMagic)
	hdr[4] = wireVersion
	hdr[5] = byte(c.Mu)
	binary.BigEndian.PutUint32(hdr[6:], uint32(c.NumPublic))
	w.Write(hdr[:])
	for _, m := range []*poly.MLE{c.QL, c.QR, c.QM, c.QO, c.QC, c.Sigma[0], c.Sigma[1], c.Sigma[2]} {
		writeFrTable(&w, m.Evals)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary deserializes and fully validates a ZKSC circuit blob.
func (c *Circuit) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	var hdr [10]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(hdr[:4]) != circuitMagic {
		return errors.New("hyperplonk: bad circuit magic")
	}
	if hdr[4] != wireVersion {
		return fmt.Errorf("hyperplonk: unsupported circuit version %d", hdr[4])
	}
	mu := int(hdr[5])
	if mu < 1 || mu > wireMaxMu {
		return fmt.Errorf("hyperplonk: circuit mu=%d outside wire range [1,%d]", mu, wireMaxMu)
	}
	n := 1 << mu
	if want := 10 + 8*n*32; len(data) != want {
		return fmt.Errorf("hyperplonk: circuit blob is %d bytes, mu=%d needs %d", len(data), mu, want)
	}
	numPublic := int(binary.BigEndian.Uint32(hdr[6:]))
	c.Mu = mu
	c.NumPublic = numPublic
	tables := []**poly.MLE{&c.QL, &c.QR, &c.QM, &c.QO, &c.QC, &c.Sigma[0], &c.Sigma[1], &c.Sigma[2]}
	for _, dst := range tables {
		m, err := readFrTable(r, n)
		if err != nil {
			return err
		}
		*dst = m
	}
	return c.Validate()
}

// MarshalBinary serializes the witness in the ZKSW wire format — the
// per-job payload of the proving service.
func (a *Assignment) MarshalBinary() ([]byte, error) {
	n := a.W1.Len()
	if n != a.W2.Len() || n != a.W3.Len() {
		return nil, errors.New("hyperplonk: ragged assignment")
	}
	mu := 0
	for 1<<mu < n {
		mu++
	}
	if 1<<mu != n || mu < 1 || mu > wireMaxMu {
		return nil, fmt.Errorf("hyperplonk: assignment length %d is not a power of two in wire range", n)
	}
	var w bytes.Buffer
	w.Grow(6 + 3*n*32)
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:4], witnessMagic)
	hdr[4] = wireVersion
	hdr[5] = byte(mu)
	w.Write(hdr[:])
	for _, m := range []*poly.MLE{a.W1, a.W2, a.W3} {
		writeFrTable(&w, m.Evals)
	}
	return w.Bytes(), nil
}

// UnmarshalBinary deserializes a ZKSW witness blob.
func (a *Assignment) UnmarshalBinary(data []byte) error {
	mu, err := decodeWitnessHeader(data)
	if err != nil {
		return err
	}
	n := 1 << mu
	if want := 6 + 3*n*32; len(data) != want {
		return fmt.Errorf("hyperplonk: witness blob is %d bytes, mu=%d needs %d", len(data), mu, want)
	}
	return a.readTables(bytes.NewReader(data[6:]), n, false)
}

// UnmarshalFrom deserializes a ZKSW witness incrementally from a stream —
// the upload path of the proving service, which tees the request body
// into its durable store while decoding, so a multi-hundred-MiB witness
// is never buffered whole. The reader must deliver exactly one witness;
// trailing bytes are an error.
func (a *Assignment) UnmarshalFrom(r io.Reader) error {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("hyperplonk: reading witness header: %w", err)
	}
	mu, err := decodeWitnessHeader(hdr[:])
	if err != nil {
		return err
	}
	return a.readTables(r, 1<<mu, true)
}

// decodeWitnessHeader validates the 6-byte ZKSW header, returning mu.
func decodeWitnessHeader(hdr []byte) (int, error) {
	if len(hdr) < 6 {
		return 0, errors.New("hyperplonk: short witness header")
	}
	if binary.BigEndian.Uint32(hdr[:4]) != witnessMagic {
		return 0, errors.New("hyperplonk: bad witness magic")
	}
	if hdr[4] != wireVersion {
		return 0, fmt.Errorf("hyperplonk: unsupported witness version %d", hdr[4])
	}
	mu := int(hdr[5])
	if mu < 1 || mu > wireMaxMu {
		return 0, fmt.Errorf("hyperplonk: witness mu=%d outside wire range [1,%d]", mu, wireMaxMu)
	}
	return mu, nil
}

// readTables fills the three wire tables from r; rejectTrailing enforces
// end-of-stream afterwards (the streaming path, where no outer length
// check exists).
func (a *Assignment) readTables(r io.Reader, n int, rejectTrailing bool) error {
	for _, dst := range []**poly.MLE{&a.W1, &a.W2, &a.W3} {
		m, err := readFrTable(r, n)
		if err != nil {
			return err
		}
		*dst = m
	}
	if rejectTrailing {
		var one [1]byte
		if _, err := io.ReadFull(r, one[:]); err != io.EOF {
			return errors.New("hyperplonk: trailing bytes after witness")
		}
	}
	return nil
}

// Digest returns a 32-byte hash binding the full witness. Together with
// the circuit digest it keys the proving service's proof cache: two
// requests share an entry iff they prove the same statement with the same
// witness.
func (a *Assignment) Digest() [32]byte {
	tr := transcript.New("zkspeed.hyperplonk.witness")
	tr.AppendFrs("w1", a.W1.Evals)
	tr.AppendFrs("w2", a.W2.Evals)
	tr.AppendFrs("w3", a.W3.Evals)
	d := tr.ChallengeFr("digest")
	return d.Bytes()
}
