// Package pcs implements the PST multilinear polynomial commitment scheme
// (multilinear KZG) used by HyperPlonk. Commitments are MSMs of MLE tables
// against a Lagrange-basis SRS; openings follow the halving schedule of
// §3.3.5: the MLE is reduced to half its size per variable and each
// quotient is committed with a 2^{μ-1}-, 2^{μ-2}-, …, 1-point MSM.
// Verification is a (μ+1)-way pairing product.
//
// The SRS is generated from explicit toxic waste (τ_1..τ_μ), i.e. a
// simulated universal trusted-setup ceremony — the appropriate substitute
// for a real powers-of-tau ceremony in a reproduction. The ceremony costs
// 2^μ fixed-base multiplications of the generator for the full Lagrange
// layer plus one affine addition per point of every smaller layer (see
// SetupWithTaus); the Zeromorph backend's powers basis uses the same
// generator kernel.
package pcs

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/msm"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// SRS is the structured reference string for up to Mu variables.
type SRS struct {
	Mu int
	// Lag[k] is the Lagrange basis for the variable suffix (x_{k+1..μ}):
	// Lag[k][i] = [eq(i, τ_{k+1..μ})]·G, of size 2^{μ-k}. Lag[0] commits
	// full MLEs; Lag[k] commits the k-th opening quotient. Lag[μ] = [G].
	Lag [][]curve.G1Affine
	// G is the G1 generator, H the G2 generator.
	G curve.G1Affine
	H curve.G2Affine
	// HTau[j] = [τ_{j+1}]·H for j = 0..μ-1 (verifier side).
	HTau []curve.G2Affine

	// digest memoizes Digest(); the sync.Once means the SRS must never be
	// copied by value once in use.
	digestOnce sync.Once
	digest     [32]byte
}

// Commitment is a hiding-free PST commitment to an MLE.
type Commitment struct {
	P curve.G1Affine
}

// OpeningProof attests that the committed MLE evaluates to a claimed value
// at a point: one quotient commitment per variable.
type OpeningProof struct {
	Quotients []curve.G1Affine
}

// SetupFromSeed derives the simulated ceremony deterministically from a
// master seed: τ values come from a SHA3 transcript over (seed, mu).
// Re-running with the same seed reproduces the identical SRS, which lets
// callers discard the (memory-heavy) SRS and rebuild it on demand without
// breaking previously issued proofs.
func SetupFromSeed(seed []byte, mu int) *SRS {
	tr := transcript.New("zkspeed.pcs.srs")
	tr.AppendBytes("seed", seed)
	muFr := ff.NewFr(uint64(mu))
	tr.AppendFr("mu", &muFr)
	return SetupWithTaus(tr.ChallengeFrs("tau", mu))
}

// SetupWithTaus builds the SRS from explicit τ values (exposed for tests
// that exploit the trapdoor). Only the full-size layer is derived from
// scalars: Lag[0] = [eq(·, τ)]·G through the generator's window table
// (msm.MulGenerator). τ_{k+1} is the low index bit of layer k, and
// eq(0, τ) + eq(1, τ) = 1, so summing a layer over that bit gives the next
// one: Lag[k+1][i] = Lag[k][2i] + Lag[k][2i+1], one affine addition per
// point (msm.SumPairs) in place of a scalar multiplication.
func SetupWithTaus(taus []ff.Fr) *SRS {
	mu := len(taus)
	srs := &SRS{
		Mu:  mu,
		Lag: make([][]curve.G1Affine, mu+1),
		G:   curve.G1Generator(),
		H:   curve.G2Generator(),
	}
	eq := poly.EqTableWith(taus, poly.Options{}) // layer-parallel Build MLE
	srs.Lag[0] = msm.MulGenerator(eq.Evals)
	for k := 0; k < mu; k++ {
		srs.Lag[k+1] = msm.SumPairs(srs.Lag[k])
	}
	var hJac, ht curve.G2Jac
	hJac.FromAffine(&srs.H)
	srs.HTau = make([]curve.G2Affine, mu)
	for j := 0; j < mu; j++ {
		ht.ScalarMul(&hJac, &taus[j])
		srs.HTau[j].FromJacobian(&ht)
	}
	return srs
}

// MaxVars returns the largest MLE size this SRS supports.
func (s *SRS) MaxVars() int { return s.Mu }

// Digest identifies the SRS commit basis: a SHA-256 over mu and the
// Lag[0] points. It is memoized (one O(2^mu) hash pass).
func (s *SRS) Digest() [32]byte {
	s.digestOnce.Do(func() {
		h := sha256.New()
		h.Write([]byte("zkspeed.pcs.srs.digest.v1"))
		var mu [8]byte
		binary.LittleEndian.PutUint64(mu[:], uint64(s.Mu))
		h.Write(mu[:])
		for i := range s.Lag[0] {
			b := s.Lag[0][i].Bytes()
			h.Write(b[:])
		}
		h.Sum(s.digest[:0])
	})
	return s.digest
}

// msmOptions derives the MSM configuration of a commitment or opening
// from the proof's execution context: grouped aggregation, parallel under
// the context's goroutine budget. Both backends configure every MSM of
// the proving side through here.
func msmOptions(opt poly.Options) msm.Options {
	return msm.Options{Parallel: true, Procs: opt.Procs, Aggregation: msm.AggregateGrouped}
}

// Commit commits to an MLE of exactly Mu variables (dense MSM).
func (s *SRS) Commit(m *poly.MLE) (Commitment, error) {
	return s.CommitWith(m, poly.Options{})
}

// CommitWith is Commit under an explicit execution context — the hook the
// engine uses to bound kernel parallelism (zkspeed.WithParallelism).
func (s *SRS) CommitWith(m *poly.MLE, opt poly.Options) (Commitment, error) {
	if m.NumVars != s.Mu {
		return Commitment{}, fmt.Errorf("pcs: MLE has %d vars, SRS supports %d", m.NumVars, s.Mu)
	}
	sum := msm.MSMWithOptions(s.Lag[0], m.Evals, msmOptions(opt))
	var c Commitment
	c.P.FromJacobian(&sum)
	return c, nil
}

// CommitSparse is Commit, which routes sparse scalars by itself. It stays
// only for the repository benchmark's layer records, which call it.
func (s *SRS) CommitSparse(m *poly.MLE) (Commitment, error) { return s.Commit(m) }

// Open produces an opening proof and the evaluation of m at point.
// m is not modified.
func (s *SRS) Open(m *poly.MLE, point []ff.Fr) (OpeningProof, ff.Fr, error) {
	return s.OpenWith(m, point, poly.Options{})
}

// OpenWith is Open under an explicit execution context: the halving
// quotient-commitment chain, the quotient extraction and the MLE Update
// fold share its goroutine budget and arena.
func (s *SRS) OpenWith(m *poly.MLE, point []ff.Fr, opt poly.Options) (OpeningProof, ff.Fr, error) {
	if m.NumVars != s.Mu || len(point) != s.Mu {
		return OpeningProof{}, ff.Fr{}, errors.New("pcs: open dimension mismatch")
	}
	mopt := msmOptions(opt)
	// The fold chain and the quotients run in arena buffers returned at
	// the end; m itself is only read.
	arena := opt.Arena()
	buf, qBuf := arena.Get(m.Len()), arena.Get(m.Len()/2)
	defer arena.Put(buf)
	defer arena.Put(qBuf)
	copy(buf, m.Evals)
	work := &poly.MLE{NumVars: m.NumVars, Evals: buf}
	proof := OpeningProof{Quotients: make([]curve.G1Affine, s.Mu)}
	q := qBuf[:0]
	for k := 0; k < s.Mu; k++ {
		half := work.Len() / 2
		q = q[:half]
		evals := work.Evals
		poly.ParallelRange(half, opt, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				q[i].Sub(&evals[2*i+1], &evals[2*i])
			}
		})
		sum := msm.MSMWithOptions(s.Lag[k+1], q, mopt)
		proof.Quotients[k].FromJacobian(&sum)
		work.FixVariableWith(&point[k], opt)
	}
	return proof, work.Evals[0], nil
}

// Verify checks that the committed polynomial evaluates to value at point.
// The textbook check e(C - value·G, H) == Π_k e(Q_k, [τ_{k+1}]H - [z_{k+1}]H)
// is rearranged by bilinearity so that every G2 argument is a fixed SRS
// element and the evaluation point enters through one small G1 MSM:
//
//	e(C - value·G + Σ_k z_{k+1}·Q_k, H) · Π_k e(-Q_k, [τ_{k+1}]H) == 1
//
// Moving z across the pairing assumes the Q_k have order r; proof decoding
// checks that (curve.G1Affine.IsInSubgroup).
func (s *SRS) Verify(c Commitment, point []ff.Fr, value ff.Fr, proof OpeningProof) (bool, error) {
	if len(point) != s.Mu || len(proof.Quotients) != s.Mu {
		return false, errors.New("pcs: verify dimension mismatch")
	}
	var negValue ff.Fr
	negValue.Neg(&value)
	pts := append([]curve.G1Affine{s.G}, proof.Quotients...)
	scalars := append([]ff.Fr{negValue}, point...)
	lhs := msm.MSMWithOptions(pts, scalars, msm.Options{Window: 4})
	lhs.AddMixed(&c.P)

	ps := make([]curve.G1Affine, s.Mu+1)
	ps[0].FromJacobian(&lhs)
	for k := range proof.Quotients {
		ps[k+1].Neg(&proof.Quotients[k])
	}
	qs := append([]curve.G2Affine{s.H}, s.HTau...)
	return curve.PairingCheck(ps, qs)
}

// CombineCommitments returns Σ coeffs[i]·cs[i] — commitments are additively
// homomorphic, which the batch-opening protocol exploits (§3.3.5).
func CombineCommitments(cs []Commitment, coeffs []ff.Fr) Commitment {
	pts := make([]curve.G1Affine, len(cs))
	for i := range cs {
		pts[i] = cs[i].P
	}
	sum := msm.MSMWithOptions(pts, coeffs, msm.Options{Window: 4})
	var out Commitment
	out.P.FromJacobian(&sum)
	return out
}
