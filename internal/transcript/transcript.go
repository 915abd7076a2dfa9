package transcript

import (
	"encoding/binary"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// Transcript is a Fiat–Shamir transcript backed by SHA3-256. Prover and
// verifier replay identical Append* calls; Challenge* calls derive field
// elements bound to the entire absorbed history, mirroring the SHA3 unit's
// internal-state-update role in zkSpeed (Fig. 2).
type Transcript struct {
	state   sha3State
	counter uint64 // distinct squeeze index per challenge
	// Stats counts transcript activity for the profiling harness.
	Absorbed   int // bytes absorbed
	Challenges int // field elements squeezed
}

// New creates a transcript bound to a protocol domain label.
func New(label string) *Transcript {
	t := &Transcript{}
	t.AppendBytes("domain", []byte(label))
	return t
}

func (t *Transcript) append(data []byte) {
	t.state.Write(data)
	t.Absorbed += len(data)
}

// AppendBytes absorbs a labeled byte string.
func (t *Transcript) AppendBytes(label string, data []byte) {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(data)))
	t.append([]byte(label))
	t.append(hdr[:])
	t.append(data)
}

// AppendFr absorbs a labeled scalar.
func (t *Transcript) AppendFr(label string, v *ff.Fr) {
	b := v.Bytes()
	t.AppendBytes(label, b[:])
}

// AppendFrs absorbs a labeled scalar vector: the bytes of one AppendFr per
// element, with the label-and-length frame they all share built once, on
// the stack for any label up to 56 bytes.
func (t *Transcript) AppendFrs(label string, vs []ff.Fr) {
	var buf [96]byte
	var frame []byte
	if n := len(label) + 8 + ff.FrBytes; n <= len(buf) {
		frame = buf[:n]
	} else {
		frame = make([]byte, n)
	}
	n := copy(frame, label)
	binary.LittleEndian.PutUint64(frame[n:], ff.FrBytes)
	for i := range vs {
		b := vs[i].Bytes()
		copy(frame[n+8:], b[:])
		t.append(frame)
	}
}

// AppendG1 absorbs a labeled G1 point.
func (t *Transcript) AppendG1(label string, p *curve.G1Affine) {
	b := p.Bytes()
	t.AppendBytes(label, b[:])
}

// ChallengeFr squeezes one field element bound to the current state.
func (t *Transcript) ChallengeFr(label string) ff.Fr {
	t.AppendBytes("challenge", []byte(label))
	var ctr [8]byte
	binary.LittleEndian.PutUint64(ctr[:], t.counter)
	t.counter++
	t.append(ctr[:])
	digest := t.state.Sum256()
	// Feed the digest back so subsequent challenges chain.
	t.append(digest[:])
	t.Challenges++
	// Reduce 256 bits mod r. The ~2^-125 bias is irrelevant here and this
	// matches the reference implementation's transcript behaviour.
	// Set256BE is the allocation-free equivalent of the big.Int route, so
	// a transcript-heavy prover round stays off the heap.
	var out ff.Fr
	out.Set256BE(&digest)
	return out
}

// ChallengeFrs squeezes n field elements.
func (t *Transcript) ChallengeFrs(label string, n int) []ff.Fr {
	out := make([]ff.Fr, n)
	for i := range out {
		out[i] = t.ChallengeFr(label)
	}
	return out
}
