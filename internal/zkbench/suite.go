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

// suiteConfig selects the sizes the structured suite runs at. All inputs
// are derived deterministically from Seed, so two runs of the same config
// on the same machine measure identical work.
type suiteConfig struct {
	// Quick marks the CI-sized variant of the suite.
	Quick bool
	// MSMLogN is log2 of the MSM point count.
	MSMLogN int
	// Windows are the Pippenger window widths to sweep (Table 2's MSM
	// design knob); each runs under both aggregation schedules (Fig. 5).
	Windows []int
	// SumcheckMu is the hypercube size of the legacy sumcheck
	// round-loop bench (pinned to the reference kernel).
	SumcheckMu int
	// SumcheckMus are the hypercube sizes of the serial-vs-parallel
	// sumcheck records (sumcheck/round/muN/{serial,parallel}) — the
	// within-run pair the CI gate's -assert-faster expression holds
	// over.
	SumcheckMus []int
	// PCSMu is the MLE size of the PCS open bench.
	PCSMu int
	// PCSMus are the MLE sizes of the pcs/commit/muN records and of the
	// scheme-parameterized records (pcs/{pst,zeromorph}/*/muN). Quick
	// includes mu12 so the CI gate's zeromorph shift assertion holds over
	// commit-sized work within one run.
	PCSMus []int
	// FoldMu is the table size of the MLE fold (Eq. 2 update) bench.
	FoldMu int
	// MLEMu is the table size of the serial-vs-parallel MTU kernel
	// records (mle/{update,eval,build,product,frac}/muN/*).
	MLEMu int
	// E2EMus are the problem sizes of the end-to-end records: a
	// steady-state Engine.Prove run and a cold start (e2e/setup/muN) at
	// each. Quick includes mu12 so the CI gate can hold set-up against
	// proving within one run.
	E2EMus []int
	// ServiceMus are the problem sizes for proving through the zkproverd
	// HTTP path (service-level latency: HTTP + queue + batch + prove).
	ServiceMus []int
	// Warmup/Reps are the default runner parameters for this config.
	Warmup, Reps int
	// Seed derives every input (SRS, scalars, witness circuits).
	Seed int64
}

// defaultConfig returns the standard suite shape: quick is sized for a CI
// gate on every PR (tens of seconds end to end), full for local runs that
// track the paper's problem-size range (extend E2EMus toward 18 via
// zkbench's -e2e-mu at the cost of minutes per size).
func defaultConfig(quick bool) suiteConfig {
	if quick {
		return suiteConfig{
			Quick:       true,
			MSMLogN:     10,
			Windows:     []int{4, 8},
			SumcheckMu:  10,
			SumcheckMus: []int{10, 12},
			PCSMu:       10,
			PCSMus:      []int{10, 12},
			FoldMu:      14,
			MLEMu:       14,
			E2EMus:      []int{8, 10, 12},
			ServiceMus:  []int{8},
			Warmup:      1,
			Reps:        5,
			Seed:        1,
		}
	}
	return suiteConfig{
		MSMLogN:     12,
		Windows:     []int{4, 7, 10},
		SumcheckMu:  14,
		SumcheckMus: []int{12, 14},
		PCSMu:       12,
		PCSMus:      []int{12},
		FoldMu:      18,
		MLEMu:       16,
		E2EMus:      []int{12, 14, 16},
		ServiceMus:  []int{10, 12},
		Warmup:      2,
		Reps:        5,
		Seed:        1,
	}
}

// frSink / fpSink / gtSink / shaSink keep the dependent ff op chains, the
// pairing values and the hash observable so the compiler cannot dead-code
// them out of the timed loops.
var (
	frSink  ff.Fr
	fpSink  ff.Fp
	gtSink  curve.GT
	shaSink [32]byte
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

// sparseScalars maps dense scalars onto the §6.2 witness distribution:
// 45% zeros, 45% ones, 10% full-width, in a fixed interleaved pattern.
func sparseScalars(dense []ff.Fr) []ff.Fr {
	out := make([]ff.Fr, len(dense))
	for i := range dense {
		switch m := i % 20; {
		case m < 9: // zero (the Fr zero value)
		case m < 18:
			out[i].SetOne()
		default:
			out[i] = dense[i]
		}
	}
	return out
}

// aggName renders an aggregation schedule for benchmark names.
func aggName(a msm.Aggregation) string {
	if a == msm.AggregateGrouped {
		return "grouped"
	}
	return "serial"
}

// kernelSuite builds the kernel-level benchmarks: Pippenger and Sparse
// MSM across window widths and both bucket-aggregation schedules, the
// sumcheck round loop, PCS commit and open, and the MLE fold — the hot
// kernels of the paper's Table 1 profile. SRSs are derived lazily inside
// Setup hooks and shared across benchmarks of the same size (the runner is
// sequential, so the cache needs no locking).
func kernelSuite(cfg suiteConfig) []benchmark {
	srsCache := map[int]*pcs.SRS{}
	srsFor := func(mu int) *pcs.SRS {
		if s, ok := srsCache[mu]; ok {
			return s
		}
		s := pcs.SetupFromSeed(seedBytes(cfg.Seed), mu)
		srsCache[mu] = s
		return s
	}

	var out []benchmark

	// Field-arithmetic kernels: the limb primitives every record below
	// bottoms out in. Each Iterate runs a fixed chain of dependent
	// operations (each output feeds the next input, so superscalar
	// overlap across iterations doesn't flatter the number); the
	// mul-baseline records pin the retained looped CIOS from baseline.go,
	// giving the CI gate a within-run reference to assert the unrolled
	// path's speedup against, hardware-independently.
	{
		const ffOps = 1 << 14
		var frX, frZ ff.Fr
		var fpX, fpZ ff.Fp
		var invXs []ff.Fr
		ffSetup := func() error {
			if invXs == nil {
				s := challengeFrs(cfg.Seed, "ff.operands", 1024)
				frX, frZ = s[0], s[1]
				fpX.SetBigInt(s[2].BigInt())
				fpZ.SetBigInt(s[3].BigInt())
				invXs = s
			}
			return nil
		}
		out = append(out,
			benchmark{
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
			benchmark{
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
			benchmark{
				Name: "ff/fr/square", Setup: ffSetup,
				Iterate: func() error {
					z := frZ
					for i := 0; i < ffOps; i++ {
						z.Square(&z)
					}
					frSink = z
					return nil
				},
			},
			benchmark{
				Name:  "ff/fr/inverse",
				Setup: ffSetup,
				Iterate: func() error {
					z := frZ
					for i := 0; i < 256; i++ {
						z.Inverse(&z)
					}
					frSink = z
					return nil
				},
			},
			benchmark{
				Name:  "ff/fr/batchinverse-n1024",
				Setup: ffSetup,
				Iterate: func() error {
					out := poly.BatchInverse(invXs)
					frSink = out[0]
					return nil
				},
			},
			benchmark{
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
			benchmark{
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
			benchmark{
				Name: "ff/fp/square", Setup: ffSetup,
				Iterate: func() error {
					z := fpZ
					for i := 0; i < ffOps; i++ {
						z.Square(&z)
					}
					fpSink = z
					return nil
				},
			},
		)
	}

	// Pairing kernels, the verifier's floor: one full pairing, the shared
	// Miller loop for one pair and for the 17 of a μ=16 PST opening check,
	// the same 17 pairs against prepared G2 lines (the consumer alone, as
	// a PCS verifier runs it), and the final exponentiation alone. Points
	// are random multiples of the generators.
	{
		const millerPairs = 17
		var ps []curve.G1Affine
		var qs []curve.G2Affine
		var prepared []curve.G2Prepared
		var miller ff.Fp12
		pairingSetup := func() error {
			if ps != nil {
				return nil
			}
			s := challengeFrs(cfg.Seed, "curve.pairing", 2*millerPairs)
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
			if prepared, err = curve.PrepareG2(qs...); err != nil {
				return err
			}
			miller, err = curve.MillerLoop(&ps[0], &qs[0])
			return err
		}
		out = append(out,
			benchmark{
				Name: "curve/pairing", Setup: pairingSetup,
				Iterate: func() error {
					var err error
					gtSink, err = curve.Pair(&ps[0], &qs[0])
					return err
				},
			},
			benchmark{
				Name: "curve/finalexp", Setup: pairingSetup,
				Iterate: func() error {
					gtSink = curve.FinalExponentiation(&miller)
					return nil
				},
			},
		)
		for _, n := range []int{1, millerPairs} {
			n := n
			out = append(out, benchmark{
				Name:  fmt.Sprintf("curve/miller/n%d", n),
				Setup: pairingSetup,
				Iterate: func() error {
					var err error
					gtSink, err = curve.MultiMillerLoop(ps[:n], qs[:n])
					return err
				},
			})
		}
		out = append(out, benchmark{
			Name:  fmt.Sprintf("curve/miller-prepared/n%d", millerPairs),
			Setup: pairingSetup,
			Iterate: func() error {
				var err error
				gtSink, err = curve.PreparedMillerLoop(ps, prepared)
				return err
			},
		})
	}

	// MSM sweeps: real SRS points (the Lagrange basis commitments run
	// against in production) with uniform scalars for the dense Pippenger
	// path and §6.2-distributed scalars for the witness-commit path. The
	// scalar vectors are identical across (window, aggregation) pairs, so
	// they are derived once and shared like the SRS cache.
	n := 1 << cfg.MSMLogN
	type msmInputs struct{ dense, sparse []ff.Fr }
	inputs := map[int]*msmInputs{}
	inputsFor := func(logN int) *msmInputs {
		in, ok := inputs[logN]
		if !ok {
			dense := challengeFrs(cfg.Seed, "msm.scalars", 1<<logN)
			in = &msmInputs{dense, sparseScalars(dense)}
			inputs[logN] = in
		}
		return in
	}
	var dense, ones []ff.Fr
	msmSetup := func() error {
		srsFor(cfg.MSMLogN)
		dense = inputsFor(cfg.MSMLogN).dense
		return nil
	}
	for _, w := range cfg.Windows {
		for _, agg := range []msm.Aggregation{msm.AggregateSerial, msm.AggregateGrouped} {
			w, agg := w, agg
			// msm.Pippenger is the retained pre-optimization reference,
			// so these records stay comparable across the fast-path work
			// (and the msm/fast assertion gates against a reference
			// measured in the same run).
			out = append(out, benchmark{
				Name:  fmt.Sprintf("msm/pippenger/n%d/w%d/%s", cfg.MSMLogN, w, aggName(agg)),
				Setup: msmSetup,
				Iterate: func() error {
					_ = msm.Pippenger(srsFor(cfg.MSMLogN).Lag[0], dense,
						msm.Options{Window: w, Aggregation: agg, Parallel: true})
					return nil
				},
			})
		}
	}

	// The fast path (signed + GLV + batch-affine, auto window) — what
	// pcs.Commit runs on a dense table — plus the same call on a
	// witness-shaped table, which it routes through the sparse path, at
	// the suite's MSM size and, in the full suite, at the 2^16 points of a
	// μ = 16 commit (2^17 after the GLV split, where DefaultWindowFast's
	// sweep runs).
	fastSizes := []int{cfg.MSMLogN}
	if !cfg.Quick && cfg.MSMLogN != 16 {
		fastSizes = append(fastSizes, 16)
	}
	for _, logN := range fastSizes {
		logN := logN
		setup := func() error {
			srsFor(logN)
			inputsFor(logN)
			return nil
		}
		out = append(out,
			benchmark{
				Name:  fmt.Sprintf("msm/fast/n%d", logN),
				Setup: setup,
				Iterate: func() error {
					_ = msm.MSM(srsFor(logN).Lag[0], inputsFor(logN).dense)
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("msm/sparse-fast/n%d", logN),
				Setup: setup,
				Iterate: func() error {
					_ = msm.MSM(srsFor(logN).Lag[0], inputsFor(logN).sparse)
					return nil
				},
			},
		)
	}
	out = append(out,
		// All scalars equal to one: every bucket update of the MSM hits
		// the same bucket, the shape of a selector column's commitment in
		// key preprocessing. Tracks the accumulator's collision handling.
		benchmark{
			Name: fmt.Sprintf("msm/fast/n%d/allones", cfg.MSMLogN),
			Setup: func() error {
				if ones == nil {
					ones = make([]ff.Fr, n)
					for i := range ones {
						ones[i].SetOne()
					}
				}
				return msmSetup()
			},
			Iterate: func() error {
				_ = msm.MSM(srsFor(cfg.MSMLogN).Lag[0], ones)
				return nil
			},
		},
	)

	// Sumcheck round loop: a ZeroCheck-shaped virtual polynomial
	// (eq · w1 · w2 · w3 plus lower-degree terms, degree 4 like the gate
	// identity). The record runs sumcheck.ProveReference — the retained
	// round-by-round prover — so its trajectory remains comparable across
	// the MTU fast-path work, exactly like the msm/pippenger records. The
	// reference consumes its tables, so Before rebuilds the instance from
	// cloned MLEs each iteration.
	{
		mu := cfg.SumcheckMu
		var base []*poly.MLE
		var coeffs []ff.Fr
		var vp *sumcheck.VirtualPoly
		out = append(out, benchmark{
			Name: fmt.Sprintf("sumcheck/rounds/mu%d", mu),
			Setup: func() error {
				point := challengeFrs(cfg.Seed, "sumcheck.point", mu)
				base = []*poly.MLE{poly.EqTable(point)}
				for k := 0; k < 3; k++ {
					evals := challengeFrs(cfg.Seed, fmt.Sprintf("sumcheck.w%d", k), 1<<mu)
					base = append(base, poly.NewMLE(evals))
				}
				coeffs = challengeFrs(cfg.Seed, "sumcheck.coeffs", 2)
				return nil
			},
			Before: func() error {
				vp = sumcheck.NewVirtualPoly(mu)
				for _, m := range base {
					vp.AddMLE(m.Clone())
				}
				var one ff.Fr
				one.SetOne()
				vp.AddTerm(one, 0, 1, 2, 3)
				vp.AddTerm(coeffs[0], 0, 1, 2)
				vp.AddTerm(coeffs[1], 0, 3)
				return nil
			},
			Iterate: func() error {
				tr := transcript.New("zkspeed.bench.sumcheck")
				_ = sumcheck.ProveReference(vp, tr)
				return nil
			},
		})
	}

	// Serial-vs-parallel sumcheck records: the same ZeroCheck shape at
	// each configured size, proved by (serial) sumcheck.ProveReference —
	// one goroutine, clones consumed per iteration, eq table
	// materialized — and by (parallel) sumcheck.Prove with its worker
	// pool, analytic eq factor and arena scratch. The CI bench gate
	// asserts parallel beats serial by ≥1.3× within the same run;
	// transcripts are bit-identical, which the sumcheck package's
	// TestProverShapesMatchReference enforces.
	for _, mu := range cfg.SumcheckMus {
		mu := mu
		var ws []*poly.MLE
		var eqTab *poly.MLE
		var point, coeffs []ff.Fr
		var vp *sumcheck.VirtualPoly
		scSetup := func() error {
			if point != nil {
				return nil
			}
			point = challengeFrs(cfg.Seed, fmt.Sprintf("sumcheck.round.point.mu%d", mu), mu)
			eqTab = poly.EqTable(point)
			ws = nil
			for k := 0; k < 3; k++ {
				evals := challengeFrs(cfg.Seed, fmt.Sprintf("sumcheck.round.w%d.mu%d", k, mu), 1<<mu)
				ws = append(ws, poly.NewMLE(evals))
			}
			coeffs = challengeFrs(cfg.Seed, fmt.Sprintf("sumcheck.round.coeffs.mu%d", mu), 2)
			return nil
		}
		addTerms := func(vp *sumcheck.VirtualPoly) {
			var one ff.Fr
			one.SetOne()
			vp.AddTerm(one, 0, 1, 2, 3)
			vp.AddTerm(coeffs[0], 0, 1, 2)
			vp.AddTerm(coeffs[1], 0, 3)
		}
		out = append(out,
			benchmark{
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
			benchmark{
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
		)
	}

	// Serial-vs-parallel MTU kernel records: each kernel of the
	// Multifunction Tree Unit (§4.3-4.5) measured through its retained
	// serial entry point and its chunked/arena-backed *With variant.
	if cfg.MLEMu > 0 {
		mu := cfg.MLEMu
		var tab, num, den *poly.MLE
		var point []ff.Fr
		var work *poly.MLE
		mleSetup := func() error {
			if tab != nil {
				return nil
			}
			tab = poly.NewMLE(challengeFrs(cfg.Seed, "mlek.table", 1<<mu))
			num = poly.NewMLE(challengeFrs(cfg.Seed, "mlek.num", 1<<mu))
			den = poly.NewMLE(challengeFrs(cfg.Seed, "mlek.den", 1<<mu))
			point = challengeFrs(cfg.Seed, "mlek.point", mu)
			return nil
		}
		popt := poly.Options{}
		cloneBefore := func() error {
			work = tab.Clone()
			return nil
		}
		out = append(out,
			benchmark{
				Name:  fmt.Sprintf("mle/update/mu%d/serial", mu),
				Setup: mleSetup, Before: cloneBefore,
				Iterate: func() error {
					for k := range point {
						work.FixVariable(&point[k])
					}
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/update/mu%d/parallel", mu),
				Setup: mleSetup, Before: cloneBefore,
				Iterate: func() error {
					for k := range point {
						work.FixVariableWith(&point[k], popt)
					}
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/eval/mu%d/serial", mu),
				Setup: mleSetup,
				Iterate: func() error {
					_ = tab.Evaluate(point)
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/eval/mu%d/parallel", mu),
				Setup: mleSetup,
				Iterate: func() error {
					_ = tab.EvaluateWith(point, popt)
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/build/mu%d/serial", mu),
				Setup: mleSetup,
				Iterate: func() error {
					_ = poly.EqTable(point)
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/build/mu%d/parallel", mu),
				Setup: mleSetup,
				Iterate: func() error {
					_ = poly.EqTableWith(point, popt)
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/product/mu%d/serial", mu),
				Setup: mleSetup,
				Iterate: func() error {
					_ = poly.ProductMLE(den)
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/product/mu%d/parallel", mu),
				Setup: mleSetup,
				Iterate: func() error {
					_ = poly.ProductMLEWith(den, popt)
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/frac/mu%d/serial", mu),
				Setup: mleSetup,
				Iterate: func() error {
					_ = poly.FractionMLE(num, den)
					return nil
				},
			},
			benchmark{
				Name:  fmt.Sprintf("mle/frac/mu%d/parallel", mu),
				Setup: mleSetup,
				Iterate: func() error {
					_ = poly.FractionMLEWith(num, den, popt)
					return nil
				},
			},
		)
	}

	// PCS commit at each PCSMus size: the dense Lag[0] MSM every
	// commitment of a proof runs.
	for _, mu := range cfg.PCSMus {
		mu := mu
		var m *poly.MLE
		setup := func() error {
			srsFor(mu)
			if m == nil {
				m = poly.NewMLE(challengeFrs(cfg.Seed, fmt.Sprintf("pcs.mle.mu%d", mu), 1<<mu))
			}
			return nil
		}
		out = append(out,
			benchmark{
				Name:  fmt.Sprintf("pcs/commit/mu%d", mu),
				Setup: setup,
				Iterate: func() error {
					_, err := srsFor(mu).Commit(m)
					return err
				},
			},
		)
	}

	// Key set-up's eight commitments of a synthetic circuit at each PCSMus
	// size: five selectors of zeros and ones and three σ tables of
	// (μ+2)-bit slot indices, the sparsest tables in the system. CI holds
	// them against one dense pcs/commit of the same size.
	for _, mu := range cfg.PCSMus {
		mu := mu
		var tables []*poly.MLE
		out = append(out, benchmark{
			Name: fmt.Sprintf("pcs/commit-key/mu%d", mu),
			Setup: func() error {
				srsFor(mu)
				if tables == nil {
					c, _, _, err := workload.SyntheticSeed(mu, cfg.Seed)
					if err != nil {
						return err
					}
					tables = []*poly.MLE{c.QL, c.QR, c.QM, c.QO, c.QC, c.Sigma[0], c.Sigma[1], c.Sigma[2]}
				}
				return nil
			},
			Iterate: func() error {
				for _, m := range tables {
					if _, err := srsFor(mu).Commit(m); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}

	// PCS open at PCSMu (does not mutate its MLE, so no Before).
	{
		mu := cfg.PCSMu
		var m *poly.MLE
		var point []ff.Fr
		out = append(out, benchmark{
			Name: fmt.Sprintf("pcs/open/mu%d", mu),
			Setup: func() error {
				srsFor(mu)
				if m == nil {
					m = poly.NewMLE(challengeFrs(cfg.Seed, "pcs.mle", 1<<mu))
					point = challengeFrs(cfg.Seed, "pcs.point", mu)
				}
				return nil
			},
			Iterate: func() error {
				_, _, err := srsFor(mu).Open(m, point)
				return err
			},
		})
	}

	// Scheme-parameterized PCS records at each PCSMus size, exercising
	// every registered backend through the pcs.PCS interface — the same
	// call path the prover takes. Zeromorph additionally benches its
	// native shifted opening against the naive emulation (commit the
	// rotated polynomial, then run a full opening on it): the CI gate
	// asserts the native path wins at the largest size, which is the
	// whole justification for carrying a second scheme.
	for _, scheme := range pcs.Schemes() {
		scheme := scheme
		sc, err := pcs.ParseScheme(scheme)
		if err != nil {
			continue
		}
		backendCache := map[int]pcs.PCS{}
		backendFor := func(mu int) (pcs.PCS, error) {
			if b, ok := backendCache[mu]; ok {
				return b, nil
			}
			b, err := pcs.NewBackend(sc, seedBytes(cfg.Seed), mu)
			if err != nil {
				return nil, err
			}
			backendCache[mu] = b
			return b, nil
		}
		for _, mu := range cfg.PCSMus {
			mu := mu
			var m *poly.MLE
			var point []ff.Fr
			setup := func() error {
				if _, err := backendFor(mu); err != nil {
					return err
				}
				if m == nil {
					m = poly.NewMLE(challengeFrs(cfg.Seed, fmt.Sprintf("pcs.%s.mle.mu%d", scheme, mu), 1<<mu))
					point = challengeFrs(cfg.Seed, fmt.Sprintf("pcs.%s.point.mu%d", scheme, mu), mu)
				}
				return nil
			}
			out = append(out,
				// The cold ceremony: what a fresh engine pays before its
				// first commitment under this scheme.
				benchmark{
					Name: fmt.Sprintf("pcs/%s/setup/mu%d", scheme, mu),
					Iterate: func() error {
						_, err := pcs.NewBackend(sc, seedBytes(cfg.Seed), mu)
						return err
					},
				},
				benchmark{
					Name:  fmt.Sprintf("pcs/%s/commit/mu%d", scheme, mu),
					Setup: setup,
					Iterate: func() error {
						b, err := backendFor(mu)
						if err != nil {
							return err
						}
						_, err = b.Commit(m)
						return err
					},
				},
				benchmark{
					Name:  fmt.Sprintf("pcs/%s/open/mu%d", scheme, mu),
					Setup: setup,
					Iterate: func() error {
						b, err := backendFor(mu)
						if err != nil {
							return err
						}
						_, _, err = b.Open(m, point)
						return err
					},
				},
			)
			// The opening check a verifier runs: one small G1 MSM and a
			// pairing product against fixed SRS elements (μ+1 pairs under
			// PST, two under Zeromorph).
			var comm pcs.Commitment
			var opening pcs.OpeningProof
			var value ff.Fr
			out = append(out, benchmark{
				Name: fmt.Sprintf("pcs/%s/verify/mu%d", scheme, mu),
				Setup: func() error {
					if err := setup(); err != nil {
						return err
					}
					b, err := backendFor(mu)
					if err != nil {
						return err
					}
					if comm, err = b.Commit(m); err != nil {
						return err
					}
					opening, value, err = b.Open(m, point)
					return err
				},
				Iterate: func() error {
					b, err := backendFor(mu)
					if err != nil {
						return err
					}
					ok, err := b.Verify(comm, point, value, opening)
					if err == nil && !ok {
						err = fmt.Errorf("pcs/%s/verify/mu%d: valid opening rejected", scheme, mu)
					}
					return err
				},
			})
			if sc != pcs.SchemeZeromorph {
				continue
			}
			out = append(out,
				benchmark{
					Name:  fmt.Sprintf("pcs/%s/open-shift/mu%d", scheme, mu),
					Setup: setup,
					Iterate: func() error {
						b, err := backendFor(mu)
						if err != nil {
							return err
						}
						_, _, err = b.OpenShift(m, point)
						return err
					},
				},
				benchmark{
					// What proving a shifted evaluation costs without
					// native support: materialize rotate(f), commit it,
					// and run a full opening on the fresh commitment.
					Name:  fmt.Sprintf("pcs/%s/open-shift-naive/mu%d", scheme, mu),
					Setup: setup,
					Iterate: func() error {
						b, err := backendFor(mu)
						if err != nil {
							return err
						}
						n := 1 << mu
						rot := make([]ff.Fr, n)
						for i := 0; i < n; i++ {
							rot[i] = m.Evals[(i+1)%n]
						}
						rm := poly.NewMLE(rot)
						if _, err := b.Commit(rm); err != nil {
							return err
						}
						_, _, err = b.Open(rm, point)
						return err
					},
				},
			)
		}
	}

	// SHA3-256 bulk throughput: circuit and witness digests absorb whole
	// tables (22 MB for a 2^16-gate circuit), so the sponge's speed is a
	// term of every cold start as well as of each Fiat–Shamir round.
	{
		var msg []byte
		out = append(out, benchmark{
			Name: "transcript/sha3/1MiB",
			Setup: func() error {
				msg = make([]byte, 1<<20)
				for i := range msg {
					msg[i] = byte(i*7 + 3)
				}
				return nil
			},
			Iterate: func() error {
				shaSink = transcript.Sum256(msg)
				return nil
			},
		})
	}

	// MLE fold: the full Eq. 2 update chain (bind all mu variables),
	// zkSpeed's MLE Update kernel. FixVariable folds in place, so Before
	// re-clones the table.
	{
		mu := cfg.FoldMu
		var base, work *poly.MLE
		var point []ff.Fr
		out = append(out, benchmark{
			Name: fmt.Sprintf("mle/fold/mu%d", mu),
			Setup: func() error {
				base = poly.NewMLE(challengeFrs(cfg.Seed, "fold.mle", 1<<mu))
				point = challengeFrs(cfg.Seed, "fold.point", mu)
				return nil
			},
			Before: func() error {
				work = base.Clone()
				return nil
			},
			Iterate: func() error {
				for k := range point {
					work.FixVariable(&point[k])
				}
				return nil
			},
		})
	}

	return out
}
