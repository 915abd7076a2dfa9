package pcs

// Zeromorph-style backend: multilinears are mapped to univariates by
// identifying the evaluation table with coefficients, U(f)(x) = Σ_i f_i
// x^i over the hypercube index i, and committed under a powers-of-τ
// univariate KZG basis. A multilinear evaluation claim f(u) = v becomes
// the univariate identity
//
//	U(f)(x) − v·Φ_μ(x) = Σ_k [x^{2^k}·Φ_{μ−k−1}(x^{2^{k+1}})
//	                          − u_k·Φ_{μ−k}(x^{2^k})]·U(q_k)(x)
//
// where Φ_d(y) = Σ_{j<2^d} y^j and q_k is the k-th multilinear quotient
// taken MSB-first (top variable eliminated first) so each U(q_k) embeds
// at stride 1 and commits directly under the same basis. The prover
// batches a degree check over the q_k (challenge y), evaluates the whole
// relation at a random ζ (challenges ζ, z from an internal transcript),
// and ships one KZG witness for the combined polynomial — μ+2 G1 points.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/msm"
	"zkspeed/internal/par"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// ZeromorphSRS is the powers-of-τ reference string for the Zeromorph
// backend: Pow[i] = [τ^i]·G for i < 2^μ, plus [τ]·H for the single
// pairing check.
type ZeromorphSRS struct {
	Mu int
	// Pow[i] = [τ^i]·G, i = 0..2^μ-1.
	Pow []curve.G1Affine
	G   curve.G1Affine
	H   curve.G2Affine
	// HTau = [τ]·H (verifier side of the KZG witness check).
	HTau curve.G2Affine

	digestOnce sync.Once
	digest     [32]byte
	// lines memoizes the Miller-loop lines of H and HTau, in that order.
	lines preparedG2
}

var _ PCS = (*ZeromorphSRS)(nil)

// ZeromorphSetupFromSeed derives the simulated powers-of-τ ceremony
// deterministically from a master seed. The transcript label differs
// from the PST one, so the same seed yields independent toxic waste per
// scheme.
func ZeromorphSetupFromSeed(seed []byte, mu int) *ZeromorphSRS {
	tr := transcript.New("zkspeed.pcs.zeromorph.srs")
	tr.AppendBytes("seed", seed)
	muFr := ff.NewFr(uint64(mu))
	tr.AppendFr("mu", &muFr)
	tau := tr.ChallengeFr("tau")
	return ZeromorphSetupWithTau(tau, mu)
}

// ZeromorphSetupWithTau builds the SRS from an explicit τ (exposed for
// tests that exploit the trapdoor).
func ZeromorphSetupWithTau(tau ff.Fr, mu int) *ZeromorphSRS {
	n := 1 << mu
	srs := &ZeromorphSRS{
		Mu: mu,
		G:  curve.G1Generator(),
		H:  curve.G2Generator(),
	}
	scalars := make([]ff.Fr, n)
	scalars[0].SetOne()
	for i := 1; i < n; i++ {
		scalars[i].Mul(&scalars[i-1], &tau)
	}
	srs.Pow = msm.MulGenerator(scalars)
	var hJac, ht curve.G2Jac
	hJac.FromAffine(&srs.H)
	ht.ScalarMul(&hJac, &tau)
	srs.HTau.FromJacobian(&ht)
	return srs
}

// Scheme identifies the Zeromorph backend.
func (s *ZeromorphSRS) Scheme() Scheme { return SchemeZeromorph }

// MaxVars returns the largest MLE size this SRS supports.
func (s *ZeromorphSRS) MaxVars() int { return s.Mu }

// Digest identifies the commit basis: a SHA-256 over mu and the powers.
func (s *ZeromorphSRS) Digest() [32]byte {
	s.digestOnce.Do(func() {
		h := sha256.New()
		h.Write([]byte("zkspeed.pcs.zeromorph.digest.v1"))
		var mu [8]byte
		binary.LittleEndian.PutUint64(mu[:], uint64(s.Mu))
		h.Write(mu[:])
		for i := range s.Pow {
			b := s.Pow[i].Bytes()
			h.Write(b[:])
		}
		h.Sum(s.digest[:0])
	})
	return s.digest
}

// Commit commits to an MLE of exactly Mu variables (dense MSM against
// the powers basis).
func (s *ZeromorphSRS) Commit(m *poly.MLE) (Commitment, error) {
	return s.CommitWith(m, poly.Options{})
}

// CommitWith is Commit under an explicit execution context.
func (s *ZeromorphSRS) CommitWith(m *poly.MLE, opt poly.Options) (Commitment, error) {
	if m.NumVars != s.Mu {
		return Commitment{}, fmt.Errorf("pcs: MLE has %d vars, SRS supports %d", m.NumVars, s.Mu)
	}
	sum := msm.MSMWithOptions(s.Pow, m.Evals, msmOptions(opt))
	var c Commitment
	c.P.FromJacobian(&sum)
	return c, nil
}

// CommitSparse is Commit, which routes sparse scalars by itself. It stays
// only for the repository benchmark's layer records, which call it.
func (s *ZeromorphSRS) CommitSparse(m *poly.MLE) (Commitment, error) { return s.Commit(m) }

// Open produces an opening proof and the evaluation of m at point.
func (s *ZeromorphSRS) Open(m *poly.MLE, point []ff.Fr) (OpeningProof, ff.Fr, error) {
	return s.OpenWith(m, point, poly.Options{})
}

// OpenWith is Open under an explicit execution context.
func (s *ZeromorphSRS) OpenWith(m *poly.MLE, point []ff.Fr, popt poly.Options) (OpeningProof, ff.Fr, error) {
	if m.NumVars != s.Mu || len(point) != s.Mu {
		return OpeningProof{}, ff.Fr{}, errors.New("pcs: open dimension mismatch")
	}
	mu, n := s.Mu, 1<<s.Mu
	opt := msmOptions(popt)

	// The quotient chain folds g, an arena copy of the table (m itself is
	// only read); q̂ then reuses the buffer.
	arena := popt.Arena()
	buf := arena.Get(n)
	defer arena.Put(buf)
	g := buf
	copy(g, m.Evals)

	// MSB-first multilinear quotients: eliminating the top remaining
	// variable keeps every q_k embedded at stride 1 in the univariate
	// map, which is what lets the verifier combine their commitments
	// homomorphically. q_k has 2^k entries. All of them are committed in
	// one MSMs call once the chain is folded, so their bucket work shares
	// one schedule.
	quotients := make([][]ff.Fr, mu)
	jobs := make([]msm.Job, mu)
	proof := OpeningProof{Quotients: make([]curve.G1Affine, mu+2)}
	for k := mu - 1; k >= 0; k-- {
		half := 1 << k
		qk := make([]ff.Fr, half)
		uk := point[k]
		par.Range(half, popt.WorkersFor(half), func(lo, hi int) {
			var t ff.Fr
			for j := lo; j < hi; j++ {
				qk[j].Sub(&g[j+half], &g[j])
				t.Mul(&uk, &qk[j])
				g[j].Add(&g[j], &t)
			}
		})
		quotients[k] = qk
		jobs[k] = msm.Job{Points: s.Pow[:half], Scalars: qk}
		g = g[:half]
	}
	curve.BatchNormalizeJac(proof.Quotients[:mu], msm.MSMs(jobs, opt))
	value := g[0]

	// Internal Fiat-Shamir: challenges bind the claim and every quotient
	// commitment; the verifier replays the identical transcript from the
	// proof, so prover and verifier always agree on (y, ζ, z). The "mode"
	// label distinguishes no other mode, but every proof's challenges
	// depend on it, so it stays.
	tr := transcript.New("zkspeed.pcs.zeromorph.open")
	tr.AppendBytes("mode", []byte("open"))
	tr.AppendFrs("point", point)
	tr.AppendFr("value", &value)
	for k := 0; k < mu; k++ {
		tr.AppendG1("quotient", &proof.Quotients[k])
	}
	y := tr.ChallengeFr("y")

	// Batched degree check: q̂(x) = Σ_k y^k·x^{N−2^k}·U(q_k)(x). Every
	// summand tops out at degree N−1, so committing q̂ under Pow proves
	// each q_k has degree < 2^k.
	qhat := buf
	for i := range qhat {
		qhat[i].SetZero()
	}
	var yPow ff.Fr
	yPow.SetOne()
	for k := 0; k < mu; k++ {
		off := n - (1 << k)
		qk := quotients[k]
		par.Range(len(qk), popt.WorkersFor(len(qk)), func(lo, hi int) {
			var t ff.Fr
			for j := lo; j < hi; j++ {
				t.Mul(&yPow, &qk[j])
				qhat[off+j].Add(&qhat[off+j], &t)
			}
		})
		yPow.Mul(&yPow, &y)
	}
	sum := msm.MSMWithOptions(s.Pow, qhat, opt)
	proof.Quotients[mu].FromJacobian(&sum)
	tr.AppendG1("qhat", &proof.Quotients[mu])
	zeta := tr.ChallengeFr("zeta")
	z := tr.ChallengeFr("z")

	sc := zeromorphScalars(mu, point, &y, &zeta, &z)

	// Combined polynomial, zero at ζ by construction:
	//   [q̂(x) − Σ_k y^k·ζ^{N−2^k}·U(q_k)(x)]
	//   + z·[U(f)(x) − v·Φ_μ(ζ) − Σ_k e_k(ζ)·U(q_k)(x)]
	c := qhat // reuse; q̂ coefficients are no longer needed separately
	for k := 0; k < mu; k++ {
		wk := sc.qScalar[k]
		qk := quotients[k]
		par.Range(len(qk), popt.WorkersFor(len(qk)), func(lo, hi int) {
			var t ff.Fr
			for j := lo; j < hi; j++ {
				t.Mul(&wk, &qk[j])
				c[j].Sub(&c[j], &t)
			}
		})
	}
	evals := m.Evals
	par.Range(n, popt.WorkersFor(n), func(lo, hi int) {
		var t ff.Fr
		for i := lo; i < hi; i++ {
			t.Mul(&z, &evals[i])
			c[i].Add(&c[i], &t)
		}
	})
	constTerm := sc.constScalar(&value)
	c[0].Add(&c[0], &constTerm)

	// KZG witness for Combined/(x−ζ) by synthetic division; the
	// remainder is Combined(ζ) = 0, so nothing is dropped.
	var pi curve.G1Jac
	if n > 1 {
		w := make([]ff.Fr, n-1)
		w[n-2] = c[n-1]
		for i := n - 2; i >= 1; i-- {
			w[i-1].Mul(&zeta, &w[i])
			w[i-1].Add(&w[i-1], &c[i])
		}
		pi = msm.MSMWithOptions(s.Pow[:n-1], w, opt)
	}
	proof.Quotients[mu+1].FromJacobian(&pi)
	return proof, value, nil
}

// Verify checks an ordinary opening: the combined commitment assembled
// from the proof must be a multiple of (τ−ζ) witnessed by π. Like
// SRS.Verify, it pairs against the Miller-loop lines of H and [τ]H that
// the first verification on this SRS prepares. It is VerifyWith of the
// one commitment with coefficient one, under the zero poly.Options.
func (s *ZeromorphSRS) Verify(c Commitment, point []ff.Fr, value ff.Fr, proof OpeningProof) (bool, error) {
	return s.VerifyWith([]Commitment{c}, []ff.Fr{ff.FrOne()}, point, value, proof, poly.Options{})
}

// VerifyWith checks an ordinary opening of Σ coeffs[i]·m_i, where cs[i]
// commits to m_i: each coefficient, times the check's z, joins the MSM
// that assembles the combined commitment. The pair (−π, [τ]H) runs
// beside that MSM under opt's goroutine budget (pairingCheck).
func (s *ZeromorphSRS) VerifyWith(cs []Commitment, coeffs []ff.Fr, point []ff.Fr, value ff.Fr, proof OpeningProof, opt poly.Options) (bool, error) {
	mu := s.Mu
	if len(point) != mu || len(proof.Quotients) != mu+2 || len(cs) != len(coeffs) {
		return false, errors.New("pcs: verify dimension mismatch")
	}
	tr := transcript.New("zkspeed.pcs.zeromorph.open")
	tr.AppendBytes("mode", []byte("open"))
	tr.AppendFrs("point", point)
	tr.AppendFr("value", &value)
	for k := 0; k < mu; k++ {
		tr.AppendG1("quotient", &proof.Quotients[k])
	}
	y := tr.ChallengeFr("y")
	tr.AppendG1("qhat", &proof.Quotients[mu])
	zeta := tr.ChallengeFr("zeta")
	z := tr.ChallengeFr("z")

	sc := zeromorphScalars(mu, point, &y, &zeta, &z)

	// C_combined = C_q̂ + z·C + const·G − Σ_k s_k·C_k, mirroring the
	// prover's combined polynomial coefficient by coefficient, with
	// C = Σ_i coeffs[i]·cs[i]. The KZG check
	// e(C_combined, H) == e(π, [τ]H − ζ·H) is rearranged so both G2
	// arguments are fixed SRS elements: ζ·π joins the same MSM and
	//
	//	e(C_combined + ζ·π, H) · e(−π, [τ]H) == 1.
	//
	// Moving ζ across the pairing assumes π has order r; proof decoding
	// checks that (curve.G1Affine.IsInSubgroup).
	n := len(cs) + mu + 3
	pts := make([]curve.G1Affine, 0, n)
	scalars := make([]ff.Fr, 0, n)
	for i := range cs {
		var t ff.Fr
		t.Mul(&z, &coeffs[i])
		pts = append(pts, cs[i].P)
		scalars = append(scalars, t)
	}
	pts = append(pts, s.G)
	scalars = append(scalars, sc.constScalar(&value))
	for k := 0; k < mu; k++ {
		var neg ff.Fr
		neg.Neg(&sc.qScalar[k])
		pts = append(pts, proof.Quotients[k])
		scalars = append(scalars, neg)
	}
	pi := proof.Quotients[mu+1]
	pts = append(pts, pi, proof.Quotients[mu])
	scalars = append(scalars, zeta, ff.FrOne())
	var negPi curve.G1Affine
	negPi.Neg(&pi)
	lines, err := s.lines.get(func() []curve.G2Affine { return []curve.G2Affine{s.H, s.HTau} })
	if err != nil {
		return false, err
	}
	return pairingCheck(pts, scalars, []curve.G1Affine{negPi}, lines, opt.Workers())
}

// zmScalars holds the per-opening scalar kit both sides compute from the
// challenges: qScalar[k] multiplies U(q_k) in the combined polynomial,
// phiMu feeds the constant term.
type zmScalars struct {
	qScalar []ff.Fr // y^k·ζ^{N−2^k} + z·e_k(ζ)
	phiMu   ff.Fr   // Φ_μ(ζ)
	z       ff.Fr
}

// zeromorphScalars derives every challenge-dependent scalar. Φ values
// come from the product form Φ_d(y) = Π_{i<d}(1 + y^{2^i}) as suffix
// products over zp[t] = ζ^{2^t}; ζ^{N−2^k} = ζ^N·(ζ^{2^k})^{−1} with a
// single field inversion.
func zeromorphScalars(mu int, point []ff.Fr, y, zeta, z *ff.Fr) zmScalars {
	// zp[t] = ζ^{2^t} for t = 0..μ.
	zp := make([]ff.Fr, mu+1)
	zp[0] = *zeta
	for t := 1; t <= mu; t++ {
		zp[t].Square(&zp[t-1])
	}
	// suffix[k] = Π_{t=k..μ−1} (1 + zp[t]) = Φ_{μ−k}(ζ^{2^k}).
	suffix := make([]ff.Fr, mu+1)
	suffix[mu].SetOne()
	var one ff.Fr
	one.SetOne()
	for k := mu - 1; k >= 0; k-- {
		var t ff.Fr
		t.Add(&one, &zp[k])
		suffix[k].Mul(&suffix[k+1], &t)
	}
	var sc zmScalars
	sc.z = *z
	sc.phiMu = suffix[0]
	zetaPowN := zp[mu]

	// zpInv = ζ^{−2^k} at step k, by squaring the inverse.
	var zpInv ff.Fr
	zpInv.Inverse(zeta)
	sc.qScalar = make([]ff.Fr, mu)
	var yPow ff.Fr
	yPow.SetOne()
	for k := 0; k < mu; k++ {
		// e_k(ζ) = ζ^{2^k}·Φ_{μ−k−1}(ζ^{2^{k+1}}) − u_k·Φ_{μ−k}(ζ^{2^k}).
		var ek, t ff.Fr
		ek.Mul(&zp[k], &suffix[k+1])
		t.Mul(&point[k], &suffix[k])
		ek.Sub(&ek, &t)
		// qScalar[k] = y^k·ζ^{N−2^k} + z·e_k(ζ).
		var zn ff.Fr
		zn.Mul(&zetaPowN, &zpInv)
		sc.qScalar[k].Mul(&yPow, &zn)
		t.Mul(z, &ek)
		sc.qScalar[k].Add(&sc.qScalar[k], &t)
		yPow.Mul(&yPow, y)
		zpInv.Square(&zpInv)
	}
	return sc
}

// constScalar is the constant-term contribution both sides add at x^0
// (prover into the combined polynomial, verifier onto G): −z·v·Φ_μ(ζ).
func (sc *zmScalars) constScalar(value *ff.Fr) ff.Fr {
	var out, t ff.Fr
	t.Mul(value, &sc.phiMu)
	out.Neg(&t)
	out.Mul(&out, &sc.z)
	return out
}
