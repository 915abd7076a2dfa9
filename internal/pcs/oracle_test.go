package pcs

import (
	"runtime"
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
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
