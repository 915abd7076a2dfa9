package main

// The layer replay. This is the only file of the benchmark that imports
// zkspeed/internal/...: it calls each layer's public entry point on inputs
// of the workload's shape and wraps every call in a span whose parent is
// the protocol step that makes that call in internal/hyperplonk/prover.go.
// It takes the path the prover takes with every option left at its
// default: no kernel selector, no per-layer goroutine cap, no deprecated
// wrapper is named, so a change that removes those does not have to edit
// the benchmark (a test greps this directory against that list). The poly
// kernels are the one place with a choice to make: the option-less
// poly.FractionMLE, EqTable, … are the serial references, not what a proof
// runs, so the replay calls the *With forms on a zero poly.Options (one
// goroutine per CPU, shared arena), which is what the prover resolves to.

import (
	"fmt"
	"math/rand"

	"zkspeed"
	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/msm"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/store"
	"zkspeed/internal/sumcheck"
	"zkspeed/internal/transcript"
)

// Operation counts of the micro-kernel spans: long enough that one span
// is well above timer resolution, short enough to stay negligible.
const (
	fieldChain   = 1 << 20
	curveChain   = 1 << 14
	scalarMuls   = 32
	transcriptOp = 1 << 10
)

// sink keeps results alive so the compiler cannot drop a measured call.
var sink struct {
	fr  ff.Fr
	fp  ff.Fp
	jac curve.G1Jac
	aff curve.G1Affine
	gt  curve.GT
	mle *poly.MLE
}

func randomFr(rng *rand.Rand) ff.Fr {
	var b [32]byte
	rng.Read(b[:])
	b[0] &= 0x3f // below the modulus, so the draw is uniform enough and never reduced
	var x ff.Fr
	x.SetBytes(b[:])
	return x
}

func randomFrs(rng *rand.Rand, n int) []ff.Fr {
	out := make([]ff.Fr, n)
	for i := range out {
		out[i] = randomFr(rng)
	}
	return out
}

// commitBasis returns the 2^μ points a dense commitment multiplies the
// table against under the backend's scheme.
func commitBasis(backend pcs.PCS) ([]curve.G1Affine, error) {
	switch s := backend.(type) {
	case *pcs.SRS:
		return s.Lag[0], nil
	case *pcs.ZeromorphSRS:
		return s.Pow, nil
	}
	return nil, fmt.Errorf("layer replay: no commit basis for scheme %v", backend.Scheme())
}

// replayLayers runs reps passes over the layers below the prover on the
// shape of one statement of the workload: the circuit's selector and wire
// tables, the proving key's commitment backend, and random dense tables
// where the prover would build its own (φ, π, the N/D factors, the
// combined opening polynomials). It returns the dense share of the first
// wire table, which is exact.
func replayLayers(t *tracer, pk *zkspeed.ProvingKey, a *zkspeed.Assignment, seed int64, reps int) (float64, error) {
	c := pk.Circuit
	mu, n := c.Mu, c.NumGates()
	backend := pk.PCS
	basis, err := commitBasis(backend)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	tables := make([]*poly.MLE, 10) // φ, π, p1, p2, D1..D3, N1..N3
	for i := range tables {
		tables[i] = poly.NewMLE(randomFrs(rng, n))
	}
	points := make([][]ff.Fr, 6) // the six batch-opening points
	for i := range points {
		points[i] = randomFrs(rng, mu)
	}
	coeffs := randomFrs(rng, 4)
	one := ff.NewFr(1)
	mopt := msm.Options{Parallel: true, Aggregation: msm.AggregateGrouped}
	var popt poly.Options
	gen := curve.G1Generator()
	g2 := curve.G2Generator()

	gatePoly := func() *sumcheck.VirtualPoly { // 9 tables, 5 terms (Eq. 3)
		vp := sumcheck.NewVirtualPoly(mu)
		ql, qr, qm, qo, qc := vp.AddMLE(c.QL), vp.AddMLE(c.QR), vp.AddMLE(c.QM), vp.AddMLE(c.QO), vp.AddMLE(c.QC)
		w1, w2, w3 := vp.AddMLE(a.W1), vp.AddMLE(a.W2), vp.AddMLE(a.W3)
		eq := vp.AddEqMLE(points[0])
		vp.AddTerm(one, ql, w1, eq)
		vp.AddTerm(one, qr, w2, eq)
		vp.AddTerm(one, qm, w1, w2, eq)
		vp.AddTerm(one, qo, w3, eq)
		vp.AddTerm(one, qc, eq)
		return vp
	}
	permPoly := func() *sumcheck.VirtualPoly { // 11 tables, 4 terms (Eq. 4)
		vp := sumcheck.NewVirtualPoly(mu)
		idx := make([]int, len(tables))
		for i, m := range tables {
			idx[i] = vp.AddMLE(m)
		}
		eq := vp.AddEqMLE(points[1])
		vp.AddTerm(one, idx[1], eq)
		vp.AddTerm(one, idx[2], idx[3], eq)
		vp.AddTerm(one, idx[0], idx[4], idx[5], idx[6], eq)
		vp.AddTerm(one, idx[7], idx[8], idx[9], eq)
		return vp
	}
	eqTables := make([]*poly.MLE, len(points))
	for j, p := range points {
		eqTables[j] = poly.EqTable(p)
	}
	openPoly := func() *sumcheck.VirtualPoly { // 12 tables, 6 terms (Eq. 5)
		vp := sumcheck.NewVirtualPoly(mu)
		for j := range points {
			vp.AddTerm(one, vp.AddMLE(tables[j]), vp.AddMLE(eqTables[j]))
		}
		return vp
	}
	round := randomFrs(rng, 5) // one round polynomial of the degree-4 gate check

	for r := 0; r < reps && err == nil; r++ {
		id := fmt.Sprintf("replay-%d", r)
		root := t.begin("replay", id, 0)
		step := func(name string, calls func(parent int)) {
			s := t.begin("replay.step."+name, id, root)
			calls(s)
			t.end(s)
		}
		keep := func(e error) {
			if err == nil {
				err = e
			}
		}

		step("witness_commit", func(p int) {
			t.call("pcs.commit_sparse", id, p, 1, func() {
				_, e := backend.CommitSparse(a.W1)
				keep(e)
			})
			t.call("msm.sparse", id, p, 1, func() { sink.jac = msm.SparseMSM(basis, a.W1.Evals, mopt) })
		})
		step("gate_identity", func(p int) {
			vp := gatePoly()
			t.call("sumcheck.zero", id, p, 1, func() { sumcheck.Prove(vp, transcript.New("replay")) })
			tr := transcript.New("replay")
			t.call("transcript.round", id, p, transcriptOp, func() {
				for i := 0; i < transcriptOp; i++ {
					tr.AppendFrs("round", round)
					sink.fr = tr.ChallengeFr("r")
				}
			})
		})
		var comm pcs.Commitment
		step("wire_identity", func(p int) {
			t.call("poly.fraction", id, p, 1, func() { sink.mle = poly.FractionMLEWith(tables[7], tables[4], popt) })
			t.call("poly.product", id, p, 1, func() { sink.mle = poly.ProductMLEWith(tables[0], popt) })
			t.call("pcs.commit_dense", id, p, 1, func() {
				var e error
				comm, e = backend.Commit(tables[0])
				keep(e)
			})
			t.call("msm.dense", id, p, 1, func() { sink.jac = msm.MSM(basis, tables[0].Evals) })
			vp := permPoly()
			t.call("sumcheck.perm", id, p, 1, func() { sumcheck.Prove(vp, transcript.New("replay")) })
		})
		step("batch_evals", func(p int) {
			t.call("poly.evaluate", id, p, 1, func() { sink.fr = tables[0].EvaluateWith(points[0], popt) })
		})
		var opening pcs.OpeningProof
		var value ff.Fr
		step("poly_open", func(p int) {
			t.call("poly.lincomb", id, p, 1, func() { sink.mle = poly.LinearCombineWith(tables[:4], coeffs, popt) })
			t.call("poly.eq_table", id, p, 1, func() { sink.mle = poly.EqTableWith(points[0], popt) })
			vp := openPoly()
			t.call("sumcheck.open", id, p, 1, func() { sumcheck.Prove(vp, transcript.New("replay")) })
			fold := tables[1].Clone() // the fold is in place
			t.call("poly.fold", id, p, 1, func() { sink.mle = fold.FixVariableWith(&coeffs[0], popt) })
			t.call("pcs.open", id, p, 1, func() {
				var e error
				opening, value, e = backend.Open(tables[0], points[0])
				keep(e)
			})
		})
		// What the verifier and the set-up call, below the protocol steps.
		t.call("pcs.verify", id, root, 1, func() {
			ok, e := backend.Verify(comm, points[0], value, opening)
			if e == nil && !ok {
				e = fmt.Errorf("layer replay: opening of a committed table does not verify")
			}
			keep(e)
		})
		t.call("curve.pairing", id, root, 1, func() {
			var e error
			sink.gt, e = curve.Pair(&gen, &g2)
			keep(e)
		})
		t.call("hyperplonk.preprocess", id, root, 1, func() {
			_, _, e := zkspeed.SetupWithPCS(c, backend)
			keep(e)
		})
		t.call("curve.g1_scalar_mul", id, root, scalarMuls, func() {
			var g, q curve.G1Jac
			g.FromAffine(&gen)
			for i := 0; i < scalarMuls; i++ {
				q.ScalarMul(&g, &tables[0].Evals[i%n])
				sink.aff.FromJacobian(&q)
			}
		})
		t.call("curve.g1_add_mixed", id, root, curveChain, func() {
			var acc curve.G1Jac
			acc.FromAffine(&gen)
			acc.Double(&acc)
			for i := 0; i < curveChain; i++ {
				acc.AddMixed(&gen)
			}
			sink.jac = acc
		})
		t.call("ff.fr_mul", id, root, fieldChain, func() {
			x, y := coeffs[0], coeffs[1]
			for i := 0; i < fieldChain; i++ {
				x.Mul(&x, &y)
			}
			sink.fr = x
		})
		t.call("ff.fp_mul", id, root, fieldChain, func() {
			x, y := gen.X, gen.Y
			for i := 0; i < fieldChain; i++ {
				x.Mul(&x, &y)
			}
			sink.fp = x
		})
		t.end(root)
	}
	stats := msm.ClassifyScalars(a.W1.Evals)
	return float64(stats.Dense) / float64(n), err
}

// replayStore times what the service's durable store does per job: the
// submit record carrying the witness and the completion record carrying
// the proof, appended to a fresh write-ahead log under dir with the
// default sync policy (fsync per append).
func replayStore(t *tracer, dir string, witness, proof []byte, reps int) error {
	wal, err := store.OpenWAL(store.WALConfig{Dir: dir})
	if err != nil {
		return err
	}
	for r := 0; r < reps && err == nil; r++ {
		id := fmt.Sprintf("job-%06x", r)
		t.call("store.append", "store", 0, 1, func() {
			if err = wal.Submit(store.JobRecord{ID: id, Witness: witness}); err == nil {
				err = wal.Complete(store.Result{ID: id, Proof: proof})
			}
		})
	}
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	return err
}
