package main

import (
	"encoding/binary"
	"fmt"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/msm"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/sumcheck"
	"zkspeed/internal/transcript"
	"zkspeed/internal/workload"
)

// sizes fixes the problem sizes the records run at, and with them the
// sizes in the record names the gates compare.
type sizes struct {
	// MSM is log2 of the msm/fast and msm/pippenger point count and the μ
	// of the msm/chain opening chain.
	MSM int
	// Sumcheck are the hypercube sizes of the sumcheck/round pairs.
	Sumcheck []int
	// Prove is the μ of the pcs/commit{,-key} and e2e records.
	Prove int
	// Service is the μ of the service records.
	Service int
}

// gateSizes are the sizes of the one production suite: those the CI gate
// expressions name. Only tests run miniatures.
var gateSizes = sizes{MSM: 10, Sumcheck: []int{10, 12}, Prove: 12, Service: 8}

// frSink / fpSink / gtSink keep the dependent ff op chains and the Miller
// loop values observable so the compiler cannot dead-code them out of the
// timed loops.
var (
	frSink ff.Fr
	fpSink ff.Fp
	gtSink curve.GT
)

// seedBytes encodes the suite seed for transcript derivation.
func seedBytes(seed int64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	return b[:]
}

// challengeFrs derives n deterministic full-range field elements bound to
// (seed, label) — uniform scalars without math/rand, stable across Go
// versions because they come from the SHA3 transcript.
func challengeFrs(seed int64, label string, n int) []ff.Fr {
	tr := transcript.New("zkspeed.bench")
	tr.AppendBytes("seed", seedBytes(seed))
	return tr.ChallengeFrs(label, n)
}

// kernelSuite builds the kernel records, one group per gate, each fast
// path beside the retained reference it is held against: field
// multiplication, the Miller loop over prepared and unprepared G2, the
// routed MSM against msm.Pippenger, the opening chain in one MSMs call
// against one call per job, the fused sumcheck against
// sumcheck.ProveReference, and a key's routed commitments against one
// dense commitment. SRSs are derived
// lazily inside Setup hooks and shared across records of the same size
// (the runner is sequential, so the cache needs no locking).
func kernelSuite(sz sizes, seed int64) [][]benchmark {
	srsCache := map[int]*pcs.SRS{}
	srsFor := func(mu int) *pcs.SRS {
		if s, ok := srsCache[mu]; ok {
			return s
		}
		s := pcs.SetupFromSeed(seedBytes(seed), mu)
		srsCache[mu] = s
		return s
	}

	var out [][]benchmark

	// Field multiplication: each Iterate runs a fixed chain of dependent
	// operations (each output feeds the next input, so superscalar
	// overlap across iterations doesn't flatter the number); the
	// -baseline records run the retained looped CIOS from baseline.go.
	{
		const ffOps = 1 << 14
		var frX, frZ ff.Fr
		var fpX, fpZ ff.Fp
		ffSetup := func() error {
			s := challengeFrs(seed, "ff.operands", 4)
			frX, frZ = s[0], s[1]
			fpX.SetBigInt(s[2].BigInt())
			fpZ.SetBigInt(s[3].BigInt())
			return nil
		}
		out = append(out, []benchmark{
			{
				Name: "ff/fr/mul", Setup: ffSetup,
				Iterate: func() error {
					z := frZ
					for i := 0; i < ffOps; i++ {
						z.Mul(&z, &frX)
					}
					frSink = z
					return nil
				},
			},
			{
				Name: "ff/fr/mul-baseline", Setup: ffSetup,
				Iterate: func() error {
					z := frZ
					for i := 0; i < ffOps; i++ {
						ff.FrMulBaseline(&z, &z, &frX)
					}
					frSink = z
					return nil
				},
			},
		}, []benchmark{
			{
				Name: "ff/fp/mul", Setup: ffSetup,
				Iterate: func() error {
					z := fpZ
					for i := 0; i < ffOps; i++ {
						z.Mul(&z, &fpX)
					}
					fpSink = z
					return nil
				},
			},
			{
				Name: "ff/fp/mul-baseline", Setup: ffSetup,
				Iterate: func() error {
					z := fpZ
					for i := 0; i < ffOps; i++ {
						ff.FpMulBaseline(&z, &z, &fpX)
					}
					fpSink = z
					return nil
				},
			},
		})
	}

	// The shared Miller loop over the 17 pairs of a μ=16 PST opening
	// check, walking G2 as it goes and against prepared G2 lines (the
	// consumer alone, as a PCS verifier runs it). Points are random
	// multiples of the generators.
	{
		const millerPairs = 17
		var ps []curve.G1Affine
		var qs []curve.G2Affine
		var prepared []curve.G2Prepared
		pairingSetup := func() error {
			if ps != nil {
				return nil
			}
			s := challengeFrs(seed, "curve.pairing", 2*millerPairs)
			g1, g2 := curve.G1Generator(), curve.G2Generator()
			var g1j, pj curve.G1Jac
			var g2j, qj curve.G2Jac
			g1j.FromAffine(&g1)
			g2j.FromAffine(&g2)
			ps = make([]curve.G1Affine, millerPairs)
			qs = make([]curve.G2Affine, millerPairs)
			for i := range ps {
				ps[i].FromJacobian(pj.ScalarMul(&g1j, &s[2*i]))
				qs[i].FromJacobian(qj.ScalarMul(&g2j, &s[2*i+1]))
			}
			var err error
			prepared, err = curve.PrepareG2(qs...)
			return err
		}
		out = append(out, []benchmark{
			{
				Name:  fmt.Sprintf("curve/miller/n%d", millerPairs),
				Setup: pairingSetup,
				Iterate: func() error {
					var err error
					gtSink, err = curve.MultiMillerLoop(ps, qs)
					return err
				},
			},
			{
				Name:  fmt.Sprintf("curve/miller-prepared/n%d", millerPairs),
				Setup: pairingSetup,
				Iterate: func() error {
					var err error
					gtSink, err = curve.PreparedMillerLoop(ps, prepared)
					return err
				},
			},
		})
	}

	// The routed MSM (signed + GLV + batch-affine, auto window) — what
	// pcs.Commit runs on a dense table — against msm.Pippenger, the
	// retained reference, with grouped aggregation at two window widths.
	// Real SRS points, uniform scalars.
	var dense []ff.Fr
	msmSetup := func() error {
		srsFor(sz.MSM)
		if dense == nil {
			dense = challengeFrs(seed, "msm.scalars", 1<<sz.MSM)
		}
		return nil
	}
	var msmGroup []benchmark
	for _, w := range []int{4, 8} {
		w := w
		msmGroup = append(msmGroup, benchmark{
			Name:  fmt.Sprintf("msm/pippenger/n%d/w%d/grouped", sz.MSM, w),
			Setup: msmSetup,
			Iterate: func() error {
				_ = msm.Pippenger(srsFor(sz.MSM).Lag[0], dense,
					msm.Options{Window: w, Aggregation: msm.AggregateGrouped, Parallel: true})
				return nil
			},
		})
	}
	out = append(out, append(msmGroup, benchmark{
		Name:  fmt.Sprintf("msm/fast/n%d", sz.MSM),
		Setup: msmSetup,
		Iterate: func() error {
			_ = msm.MSM(srsFor(sz.MSM).Lag[0], dense)
			return nil
		},
	}))

	// The PST opening chain's MSMs: quotients of 2^(μ-1) … 1 dense
	// scalars against the SRS's Lagrange layers 1 … μ, as SRS.OpenWith
	// commits them — all in one MSMs call, whose bucket blocks share one
	// schedule, and one MSMWithOptions call each, the shape before that.
	chainMu := sz.MSM
	var chainJobs []msm.Job
	chainSetup := func() error {
		if chainJobs == nil {
			srs := srsFor(chainMu)
			scalars := challengeFrs(seed, "msm.chain", 1<<chainMu)
			for k := 0; k < chainMu; k++ {
				half := 1 << (chainMu - 1 - k)
				chainJobs = append(chainJobs, msm.Job{Points: srs.Lag[k+1], Scalars: scalars[half : 2*half]})
			}
		}
		return nil
	}
	chainOpt := msm.Options{Parallel: true, Aggregation: msm.AggregateGrouped}
	out = append(out, []benchmark{
		{
			Name:  fmt.Sprintf("msm/chain/mu%d", chainMu),
			Setup: chainSetup,
			Iterate: func() error {
				_ = msm.MSMs(chainJobs, chainOpt)
				return nil
			},
		},
		{
			Name:  fmt.Sprintf("msm/chain/mu%d/one-by-one", chainMu),
			Setup: chainSetup,
			Iterate: func() error {
				for _, j := range chainJobs {
					_ = msm.MSMWithOptions(j.Points, j.Scalars, chainOpt)
				}
				return nil
			},
		},
	})

	// Serial-vs-parallel sumcheck records: a ZeroCheck-shaped virtual
	// polynomial (eq · w1 · w2 · w3 plus lower-degree terms, degree 4
	// like the gate identity) proved by (serial) sumcheck.ProveReference —
	// one goroutine, clones consumed per iteration, eq table
	// materialized — and by (parallel) sumcheck.Prove with its worker
	// pool, analytic eq factor and arena scratch. Transcripts are
	// bit-identical, which the sumcheck package's
	// TestProverShapesMatchReference enforces.
	for _, mu := range sz.Sumcheck {
		mu := mu
		var ws []*poly.MLE
		var eqTab *poly.MLE
		var point, coeffs []ff.Fr
		var vp *sumcheck.VirtualPoly
		scSetup := func() error {
			if point != nil {
				return nil
			}
			point = challengeFrs(seed, fmt.Sprintf("sumcheck.round.point.mu%d", mu), mu)
			eqTab = poly.EqTable(point)
			for k := 0; k < 3; k++ {
				evals := challengeFrs(seed, fmt.Sprintf("sumcheck.round.w%d.mu%d", k, mu), 1<<mu)
				ws = append(ws, poly.NewMLE(evals))
			}
			coeffs = challengeFrs(seed, fmt.Sprintf("sumcheck.round.coeffs.mu%d", mu), 2)
			return nil
		}
		addTerms := func(vp *sumcheck.VirtualPoly) {
			var one ff.Fr
			one.SetOne()
			vp.AddTerm(one, 0, 1, 2, 3)
			vp.AddTerm(coeffs[0], 0, 1, 2)
			vp.AddTerm(coeffs[1], 0, 3)
		}
		out = append(out, []benchmark{
			{
				Name:  fmt.Sprintf("sumcheck/round/mu%d/serial", mu),
				Setup: scSetup,
				Before: func() error {
					vp = sumcheck.NewVirtualPoly(mu)
					vp.AddMLE(eqTab.Clone())
					for _, m := range ws {
						vp.AddMLE(m.Clone())
					}
					addTerms(vp)
					return nil
				},
				Iterate: func() error {
					tr := transcript.New("zkspeed.bench.sumcheck")
					_ = sumcheck.ProveReference(vp, tr)
					return nil
				},
			},
			{
				Name:  fmt.Sprintf("sumcheck/round/mu%d/parallel", mu),
				Setup: scSetup,
				Before: func() error {
					vp = sumcheck.NewVirtualPoly(mu)
					vp.AddEqMLE(point)
					for _, m := range ws {
						vp.AddMLE(m) // Prove preserves tables
					}
					addTerms(vp)
					return nil
				},
				Iterate: func() error {
					tr := transcript.New("zkspeed.bench.sumcheck")
					_ = sumcheck.Prove(vp, tr)
					return nil
				},
			},
		})
	}

	// One dense commitment, the Lag[0] MSM every commitment of a proof
	// runs, against key set-up's eight commitments of a synthetic circuit
	// of the same size: five selectors of zeros and ones and three σ
	// tables of (μ+2)-bit slot indices, the sparsest tables in the system.
	mu := sz.Prove
	var m *poly.MLE
	var keyTables []*poly.MLE
	return append(out, []benchmark{
		{
			Name: fmt.Sprintf("pcs/commit/mu%d", mu),
			Setup: func() error {
				srsFor(mu)
				m = poly.NewMLE(challengeFrs(seed, fmt.Sprintf("pcs.mle.mu%d", mu), 1<<mu))
				return nil
			},
			Iterate: func() error {
				_, err := srsFor(mu).Commit(m)
				return err
			},
		},
		{
			Name: fmt.Sprintf("pcs/commit-key/mu%d", mu),
			Setup: func() error {
				srsFor(mu)
				c, _, _, err := workload.SyntheticSeed(mu, seed)
				if err != nil {
					return err
				}
				keyTables = []*poly.MLE{c.QL, c.QR, c.QM, c.QO, c.QC, c.Sigma[0], c.Sigma[1], c.Sigma[2]}
				return nil
			},
			Iterate: func() error {
				for _, t := range keyTables {
					if _, err := srsFor(mu).Commit(t); err != nil {
						return err
					}
				}
				return nil
			},
		},
	})
}
