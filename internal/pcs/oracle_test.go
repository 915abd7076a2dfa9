package pcs

import (
	"errors"
	"runtime"
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/msm"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// The pre-fixed-base ceremony, retained as the byte-equality oracle for
// SetupWithTaus and ZeromorphSetupWithTau: every SRS point is an
// independent double-and-add scalar multiplication of the generator with
// its own inversion, and every PST layer comes from its own eq table.

// batchScalarMulG1 computes [s_i]·base for every scalar, in parallel.
func batchScalarMulG1(base *curve.G1Jac, scalars []ff.Fr) []curve.G1Affine {
	out := make([]curve.G1Affine, len(scalars))
	nw := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	chunk := (len(scalars) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(scalars) {
			hi = len(scalars)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var p curve.G1Jac
			for i := lo; i < hi; i++ {
				p.ScalarMul(base, &scalars[i])
				out[i].FromJacobian(&p)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// oracleSetupWithTaus is SetupWithTaus as it stood before the layer fold.
func oracleSetupWithTaus(taus []ff.Fr) *SRS {
	mu := len(taus)
	srs := &SRS{
		Mu:  mu,
		Lag: make([][]curve.G1Affine, mu+1),
		G:   curve.G1Generator(),
		H:   curve.G2Generator(),
	}
	srs.Lag[mu] = []curve.G1Affine{srs.G}
	var gJac curve.G1Jac
	gJac.FromAffine(&srs.G)
	for k := 0; k < mu; k++ {
		eq := poly.EqTable(taus[k:])
		srs.Lag[k] = batchScalarMulG1(&gJac, eq.Evals)
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

// oracleZeromorphSetupWithTau is ZeromorphSetupWithTau as it stood before
// the generator window table.
func oracleZeromorphSetupWithTau(tau ff.Fr, mu int) *ZeromorphSRS {
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
	var gJac curve.G1Jac
	gJac.FromAffine(&srs.G)
	srs.Pow = batchScalarMulG1(&gJac, scalars)
	var hJac, ht curve.G2Jac
	hJac.FromAffine(&srs.H)
	ht.ScalarMul(&hJac, &tau)
	srs.HTau.FromJacobian(&ht)
	return srs
}

// The G2-side verifiers, as both backends' Verify stood before the
// evaluation-point scalars moved into G1: every pair gets its own G2
// element [τ]H − [z]H, built with a G2 scalar multiplication, an addition
// and a normalisation. Retained as the accept/reject oracle for Verify.

// oracleVerifyPST checks e(C − v·G, H) == Π_k e(Q_k, [τ_{k+1}]H − [z_{k+1}]H).
func oracleVerifyPST(s *SRS, c Commitment, point []ff.Fr, value ff.Fr, proof OpeningProof) (bool, error) {
	if len(point) != s.Mu || len(proof.Quotients) != s.Mu {
		return false, errors.New("pcs: verify dimension mismatch")
	}
	var gJac, vG, lhs curve.G1Jac
	gJac.FromAffine(&s.G)
	vG.ScalarMul(&gJac, &value)
	vG.Neg(&vG)
	lhs.FromAffine(&c.P)
	lhs.Add(&lhs, &vG)
	var lhsAff curve.G1Affine
	lhsAff.FromJacobian(&lhs)

	ps := []curve.G1Affine{lhsAff}
	qs := []curve.G2Affine{s.H}
	var hJac, zH, rhs curve.G2Jac
	hJac.FromAffine(&s.H)
	for k := 0; k < s.Mu; k++ {
		zH.ScalarMul(&hJac, &point[k])
		var tauH curve.G2Jac
		tauH.FromAffine(&s.HTau[k])
		zH.Neg(&zH)
		rhs.Add(&tauH, &zH)
		var rhsAff curve.G2Affine
		rhsAff.FromJacobian(&rhs)
		var negQ curve.G1Affine
		negQ.Neg(&proof.Quotients[k])
		ps = append(ps, negQ)
		qs = append(qs, rhsAff)
	}
	return curve.PairingCheck(ps, qs)
}

// oracleVerifyZeromorph checks e(C_combined, H) == e(π, [τ]H − ζ·H).
func oracleVerifyZeromorph(s *ZeromorphSRS, c Commitment, point []ff.Fr, value ff.Fr, proof OpeningProof) (bool, error) {
	mu := s.Mu
	if len(point) != mu || len(proof.Quotients) != mu+2 {
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

	pts := []curve.G1Affine{c.P, s.G}
	scalars := []ff.Fr{z, sc.constScalar(&value)}
	for k := 0; k < mu; k++ {
		var neg ff.Fr
		neg.Neg(&sc.qScalar[k])
		pts = append(pts, proof.Quotients[k])
		scalars = append(scalars, neg)
	}
	comb := msm.MSMWithOptions(pts, scalars, msm.Options{Window: 4})
	var qhatJac curve.G1Jac
	qhatJac.FromAffine(&proof.Quotients[mu])
	comb.Add(&comb, &qhatJac)
	var combAff curve.G1Affine
	combAff.FromJacobian(&comb)

	var hJac, zH, rhs curve.G2Jac
	hJac.FromAffine(&s.H)
	zH.ScalarMul(&hJac, &zeta)
	zH.Neg(&zH)
	var tauH curve.G2Jac
	tauH.FromAffine(&s.HTau)
	rhs.Add(&tauH, &zH)
	var rhsAff curve.G2Affine
	rhsAff.FromJacobian(&rhs)
	var negPi curve.G1Affine
	negPi.Neg(&proof.Quotients[mu+1])
	return curve.PairingCheck(
		[]curve.G1Affine{combAff, negPi},
		[]curve.G2Affine{s.H, rhsAff},
	)
}
