package sumcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
	"zkspeed/internal/transcript"
)

// contexts is the execution-context sweep ProveWith must match
// ProveReference under: the default, serial and oversubscribed worker
// counts, shared and private arenas.
func contexts() []poly.Options {
	return []poly.Options{
		{}, // defaults: GOMAXPROCS workers, shared arena
		{Procs: 1},
		{Procs: 3},
		{Procs: 16},
		{Procs: 1, Scratch: poly.NewScratch()},
		{Procs: 3, Scratch: poly.NewScratch()},
		{Procs: 16, Scratch: poly.NewScratch()},
	}
}

// checkProvers runs ProveReference and ProveWith under every context on
// fresh instances from build (the reference consumes its tables) and
// compares each result with want.
func checkProvers(t *testing.T, label, domain string, build func() *VirtualPoly, want ProverResult) {
	t.Helper()
	equalResults(t, label+" reference", ProveReference(build(), transcript.New(domain)), want)
	for _, opt := range contexts() {
		got := ProveWith(build(), transcript.New(domain), opt)
		equalResults(t, fmt.Sprintf("%s procs%d private=%v", label, opt.Procs, opt.Scratch != nil), got, want)
	}
}

// oracleRounds computes every round polynomial and challenge by brute
// force: g_j(t) = Σ_{x∈{0,1}^{μ-j-1}} vp(r_1..r_j, t, x) via EvaluateAt
// over the untouched MLEs, replaying the same transcript schedule. When
// every term carries one AddEqMLE factor eq(t, ·), the rounds sent are
// h_j(t) = Σ_x eq(t_{>j}, x)·F(r_1..r_j, t, x) instead, F being vp
// without the eq factor, and each g_j, with the eq table materialized,
// must equal P_j·L_j·h_j at every node.
func oracleRounds(t *testing.T, vp *VirtualPoly, tr *transcript.Transcript) ProverResult {
	t.Helper()
	mu := vp.NumVars
	deg := roundDegree(vp)
	eq := eqFactor(vp)
	dr := deg
	if eq >= 0 {
		dr = hDegree(deg)
	}
	res := ProverResult{}
	point := make([]ff.Fr, mu)
	mleEvals := make([]ff.Fr, len(vp.MLEs))
	prefix := ff.FrOne() // P_j, when eq ≥ 0
	for round := 0; round < mu; round++ {
		suffix := mu - round - 1
		g := make([]ff.Fr, max(deg, dr)+1)
		h := make([]ff.Fr, len(g))
		for x := range g {
			point[round].SetUint64(uint64(x))
			for b := 0; b < 1<<suffix; b++ {
				for j := 0; j < suffix; j++ {
					point[round+1+j].SetUint64(uint64(b >> j & 1))
				}
				v := vp.EvaluateAt(point)
				g[x].Add(&g[x], &v)
				if eq >= 0 {
					for k := range vp.MLEs {
						mleEvals[k] = vp.mle(k).Evaluate(point)
					}
					mleEvals[eq] = poly.EvalEq(vp.lazy[eq].point[round+1:], point[round+1:])
					v = CombineTermEvals(vp.Terms, mleEvals)
					h[x].Add(&h[x], &v)
				}
			}
		}
		evals := g
		if eq >= 0 {
			tj := &vp.lazy[eq].point[round]
			for x := 0; x <= deg; x++ {
				xf := ff.NewFr(uint64(x))
				want := eq1(tj, &xf)
				want.Mul(&want, &prefix)
				want.Mul(&want, &h[x])
				if !want.Equal(&g[x]) {
					t.Fatalf("oracle: round %d: g(%d) != P·L·h", round, x)
				}
			}
			evals = h
		}
		sent := make([]ff.Fr, dr)
		r := sendRound(tr, evals[:dr+1], sent)
		point[round] = r
		if eq >= 0 {
			e := eq1(&vp.lazy[eq].point[round], &r)
			prefix.Mul(&prefix, &e)
		}
		res.Proof.Rounds = append(res.Proof.Rounds, RoundPoly{Evals: sent})
		res.Challenges = append(res.Challenges, r)
	}
	res.FinalEvals = make([]ff.Fr, len(vp.MLEs))
	for k := range vp.MLEs {
		res.FinalEvals[k] = vp.mle(k).Evaluate(point)
	}
	return res
}

func equalResults(t *testing.T, label string, got, want ProverResult) {
	t.Helper()
	if len(got.Proof.Rounds) != len(want.Proof.Rounds) {
		t.Fatalf("%s: %d rounds, want %d", label, len(got.Proof.Rounds), len(want.Proof.Rounds))
	}
	for j := range want.Proof.Rounds {
		ge, we := got.Proof.Rounds[j].Evals, want.Proof.Rounds[j].Evals
		if len(ge) != len(we) {
			t.Fatalf("%s: round %d has %d evals, want %d", label, j, len(ge), len(we))
		}
		for x := range we {
			if !ge[x].Equal(&we[x]) {
				t.Fatalf("%s: round %d eval %d differs", label, j, x)
			}
		}
		if !got.Challenges[j].Equal(&want.Challenges[j]) {
			t.Fatalf("%s: challenge %d differs", label, j)
		}
	}
	if len(got.FinalEvals) != len(want.FinalEvals) {
		t.Fatalf("%s: %d final evals, want %d", label, len(got.FinalEvals), len(want.FinalEvals))
	}
	for k := range want.FinalEvals {
		if !got.FinalEvals[k].Equal(&want.FinalEvals[k]) {
			t.Fatalf("%s: final eval %d differs", label, k)
		}
	}
}

// TestProveWithPropertySweep sweeps virtual-polynomial shapes — term
// count × degree × μ, including the μ=0 and μ=1 edge cubes — and checks
// both provers under every context against the naive evaluate-everywhere
// oracle: identical round polynomials, identical challenges (hence
// identical transcripts), identical final evaluations.
func TestProveWithPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, mu := range []int{0, 1, 2, 3, 5, 6} {
		for _, nTerms := range []int{1, 2, 5} {
			for _, deg := range []int{1, 2, 4} {
				nMLE := deg + 1
				vp := NewVirtualPoly(mu)
				for k := 0; k < nMLE; k++ {
					vp.AddMLE(randMLE(rng, mu))
				}
				for ti := 0; ti < nTerms; ti++ {
					d := 1 + rng.Intn(deg)
					if ti == 0 {
						d = deg // pin the max degree
					}
					idx := make([]int, d)
					for x := range idx {
						idx[x] = rng.Intn(nMLE)
					}
					c := randFr(rng)
					if ti%2 == 0 {
						c.SetOne() // exercise the coefficient-one fast path
					}
					vp.AddTerm(c, idx...)
				}

				// The oracle never mutates its tables; ProveReference
				// consumes its own, so hand each run a cloned instance.
				clone := func() *VirtualPoly {
					cp := NewVirtualPoly(mu)
					for _, m := range vp.MLEs {
						cp.AddMLE(m.Clone())
					}
					cp.Terms = vp.Terms
					return cp
				}
				want := oracleRounds(t, clone(), transcript.New("prop"))
				checkProvers(t, fmt.Sprintf("mu=%d terms=%d deg=%d", mu, nTerms, deg), "prop", clone, want)
			}
		}
	}
}

// TestEqAnnotatedMatchesMaterialized sweeps ZeroCheck-shaped instances
// where the eq factor is registered via AddEqMLE and checks both provers
// under every context against the oracle, which ties each h round to
// the materialized eq table's g = P·L·h: the analytic-eq path (no
// table, no fold, claim-derived h(1)) must reproduce the transcript bit
// for bit, including the eq MLE's final evaluation.
func TestEqAnnotatedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, mu := range []int{1, 2, 3, 5, 7} {
		for _, deg := range []int{1, 2, 4, 5} {
			point := make([]ff.Fr, mu)
			for i := range point {
				point[i] = randFr(rng)
			}
			nMLE := 3
			mles := make([]*poly.MLE, nMLE)
			for k := range mles {
				mles[k] = randMLE(rng, mu)
			}
			coeffs := []ff.Fr{ff.FrOne(), randFr(rng), randFr(rng)}
			build := func() *VirtualPoly {
				vp := NewVirtualPoly(mu)
				iEq := vp.AddEqMLE(point)
				idx := make([]int, nMLE)
				for k, m := range mles {
					idx[k] = vp.AddMLE(m.Clone())
				}
				// Terms of degree deg, deg-1, 2 — each multiplied by eq.
				full := []int{iEq}
				for d := 1; d < deg; d++ {
					full = append(full, idx[d%nMLE])
				}
				vp.AddTerm(coeffs[0], full...)
				if deg >= 2 {
					vp.AddTerm(coeffs[1], full[:deg-1]...)
				}
				vp.AddTerm(coeffs[2], iEq, idx[0])
				return vp
			}
			want := oracleRounds(t, build(), transcript.New("eq"))
			checkProvers(t, fmt.Sprintf("mu=%d deg=%d", mu, deg), "eq", build, want)
		}
	}
}

// TestEqAnnotatedEdgePoints pins the analytic-eq special cases: eq
// parameters equal to 0 (h(1) cannot be claim-derived; the sweep
// computes it) and 1 (L(0) = 0), and the μ=0 cube.
func TestEqAnnotatedEdgePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	mu := 4
	for _, tval := range []uint64{0, 1} {
		point := make([]ff.Fr, mu)
		for i := range point {
			if i%2 == 0 {
				point[i].SetUint64(tval)
			} else {
				point[i] = randFr(rng)
			}
		}
		m1, m2 := randMLE(rng, mu), randMLE(rng, mu)
		coeff := randFrSeeded(int64(tval) + 80)
		build := func() *VirtualPoly {
			vp := NewVirtualPoly(mu)
			iEq := vp.AddEqMLE(point)
			a := vp.AddMLE(m1.Clone())
			b := vp.AddMLE(m2.Clone())
			vp.AddTerm(ff.FrOne(), iEq, a, b)
			vp.AddTerm(coeff, iEq, a)
			return vp
		}
		want := oracleRounds(t, build(), transcript.New("edge"))
		checkProvers(t, fmt.Sprintf("t=%d", tval), "edge", build, want)
	}

	// μ=0: no rounds; the lazily registered eq table must still
	// materialize for the final evaluations.
	vp := NewVirtualPoly(0)
	iEq := vp.AddEqMLE([]ff.Fr{})
	iM := vp.AddMLE(poly.NewMLE([]ff.Fr{randFr(rng)}))
	vp.AddTerm(ff.FrOne(), iEq, iM)
	res := Prove(vp, transcript.New("mu0"))
	if len(res.FinalEvals) != 2 || !res.FinalEvals[iEq].IsOne() {
		t.Fatal("mu=0 eq annotation: final eval must be the empty product 1")
	}
}

// randFrSeeded derives a reproducible scalar for table-driven cases.
func randFrSeeded(seed int64) ff.Fr {
	return randFr(rand.New(rand.NewSource(seed)))
}

// TestFusedSharedFactorShapes pins the factoring paths: every term
// sharing one MLE (the eq-table shape), repeated indices within a term,
// and a term that is exactly the shared factor.
func TestFusedSharedFactorShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	mu := 4
	vp := NewVirtualPoly(mu)
	for k := 0; k < 3; k++ {
		vp.AddMLE(randMLE(rng, mu))
	}
	one := ff.FrOne()
	vp.AddTerm(one, 0, 1, 1, 2) // repeated index
	vp.AddTerm(randFr(rng), 0, 1)
	vp.AddTerm(randFr(rng), 1, 0) // shared factors in different positions
	// Shared multiset is {0,1}; this term reduces to the empty product.
	vp.AddTerm(randFr(rng), 0, 1)

	clone := func() *VirtualPoly {
		cp := NewVirtualPoly(mu)
		for _, m := range vp.MLEs {
			cp.AddMLE(m.Clone())
		}
		cp.Terms = vp.Terms
		return cp
	}
	want := oracleRounds(t, clone(), transcript.New("shape"))
	checkProvers(t, "shared factors", "shape", clone, want)
}

// TestProveKeepsTablesReferenceConsumes: Prove must leave the caller's MLE
// tables untouched (the prover does not clone them), while ProveReference
// folds them in place down to one entry each.
func TestProveKeepsTablesReferenceConsumes(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	mu := 5
	vp := NewVirtualPoly(mu)
	var snapshots []*poly.MLE
	for k := 0; k < 3; k++ {
		m := randMLE(rng, mu)
		snapshots = append(snapshots, m.Clone())
		vp.AddMLE(m)
	}
	vp.AddTerm(ff.FrOne(), 0, 1, 2)
	Prove(vp, transcript.New("preserve"))
	for k, m := range vp.MLEs {
		if m.Len() != snapshots[k].Len() {
			t.Fatalf("MLE %d was folded", k)
		}
		for i := range m.Evals {
			if !m.Evals[i].Equal(&snapshots[k].Evals[i]) {
				t.Fatalf("MLE %d mutated at %d", k, i)
			}
		}
	}
	res := ProveReference(vp, transcript.New("preserve"))
	for k, m := range vp.MLEs {
		if m.Len() != 1 || !m.Evals[0].Equal(&res.FinalEvals[k]) {
			t.Fatalf("ProveReference left MLE %d with %d entries, want its final evaluation alone", k, m.Len())
		}
	}
}

// TestProverShapesMatchReference runs the three instances a HyperPlonk
// proof makes — gate identity (9 tables, degree 4, Eq. 3), wiring identity
// (11 tables, degree 5, Eq. 4) and opening (12 tables, degree 2, Eq. 5) —
// at μ = 1..10: ProveWith under every context must reproduce
// ProveReference's round polynomials, challenges and final evaluations.
// The wiring identity also runs as the prover registers it (N_j and D_j
// affine), and the opening with one eq factor per term at the prover's
// six points: two random, two equal past x_1 (S0, S1), a Boolean one
// (the product root) and a zero-padded one (the public inputs').
func TestProverShapesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	one := ff.FrOne()
	for mu := 1; mu <= 10; mu++ {
		tables := make([]*poly.MLE, 12)
		for k := range tables {
			tables[k] = randMLE(rng, mu)
		}
		point := make([]ff.Fr, mu)
		for i := range point {
			point[i] = randFr(rng)
		}
		alpha := randFr(rng)
		beta, gamma := randFr(rng), randFr(rng)
		openPts := make([][]ff.Fr, 6)
		for j := range openPts {
			openPts[j] = make([]ff.Fr, mu)
		}
		for i := 0; i < mu; i++ {
			openPts[0][i] = randFr(rng)
			openPts[1][i] = randFr(rng)
		}
		copy(openPts[2][1:], openPts[1])
		copy(openPts[3][1:], openPts[1])
		openPts[3][0].SetOne()
		openPts[4] = poly.ProductRootPoint(mu)
		for i := 0; i < (mu+1)/2; i++ {
			openPts[5][i] = randFr(rng)
		}
		// add registers clones of the first n tables (the reference folds
		// them in place) and returns their indices.
		add := func(vp *VirtualPoly, n int) []int {
			idx := make([]int, n)
			for k := range idx {
				idx[k] = vp.AddMLE(tables[k].Clone())
			}
			return idx
		}
		shapes := map[string]func() *VirtualPoly{
			"gate": func() *VirtualPoly {
				vp := NewVirtualPoly(mu)
				i := add(vp, 8) // qL qR qM qO qC w1 w2 w3
				eq := vp.AddEqMLE(point)
				vp.AddTerm(one, i[0], i[5], eq)
				vp.AddTerm(one, i[1], i[6], eq)
				vp.AddTerm(one, i[2], i[5], i[6], eq)
				vp.AddTerm(alpha, i[3], i[7], eq)
				vp.AddTerm(one, i[4], eq)
				return vp
			},
			"perm": func() *VirtualPoly {
				vp := NewVirtualPoly(mu)
				i := add(vp, 10) // π p1 p2 φ D1..D3 N1..N3
				eq := vp.AddEqMLE(point)
				vp.AddTerm(one, i[0], eq)
				vp.AddTerm(one, i[1], i[2], eq)
				vp.AddTerm(alpha, i[3], i[4], i[5], i[6], eq)
				vp.AddTerm(alpha, i[7], i[8], i[9], eq)
				return vp
			},
			"perm-affine": func() *VirtualPoly {
				vp := NewVirtualPoly(mu)
				i := add(vp, 4) // π p1 p2 φ
				var d, n [3]int
				for j := 0; j < 3; j++ {
					w, sigma := tables[4+j], tables[7+j] // read only: affine sources are never folded in place
					d[j] = vp.AddAffineMLE(poly.Affine{W: w, Scale: beta, S: sigma, Shift: gamma})
					n[j] = vp.AddAffineMLE(poly.Affine{W: w, Scale: beta, Offset: uint64(j << mu), Shift: gamma})
				}
				eq := vp.AddEqMLE(point)
				vp.AddTerm(one, i[0], eq)
				vp.AddTerm(one, i[1], i[2], eq)
				vp.AddTerm(alpha, i[3], d[0], d[1], d[2], eq)
				vp.AddTerm(alpha, n[0], n[1], n[2], eq)
				return vp
			},
			"open-eq": func() *VirtualPoly {
				vp := NewVirtualPoly(mu)
				i := add(vp, 6) // y_1..y_6
				for j, pt := range openPts {
					vp.AddTerm(one, i[j], vp.AddEqMLE(pt))
				}
				return vp
			},
			"open": func() *VirtualPoly {
				vp := NewVirtualPoly(mu)
				i := add(vp, 12) // six (y_j, k_j) pairs
				for j := 0; j < 6; j++ {
					vp.AddTerm(one, i[2*j], i[2*j+1])
				}
				return vp
			},
		}
		for name, build := range shapes {
			want := ProveReference(build(), transcript.New(name))
			checkProvers(t, fmt.Sprintf("%s mu=%d", name, mu), name, build, want)
		}
	}
}

// TestClampWorkersSmallRounds covers the degenerate-clamp fix: when the
// instance count is below the worker budget the round must keep one
// worker per instance (nw = half), not collapse to a single worker.
func TestClampWorkersSmallRounds(t *testing.T) {
	for _, tc := range []struct{ procs, half, want int }{
		{8, 2, 2},  // μ=2 round 0: 2 instances
		{8, 4, 4},  // μ=3 round 0
		{8, 8, 8},  // μ=4 round 0: exact fit
		{8, 1, 1},  // final rounds: single instance
		{8, 16, 8}, // budget-bound
		{0, 4, 1},  // defensive floor
		{1, 4, 1},
	} {
		if got := clampWorkers(tc.procs, tc.half); got != tc.want {
			t.Errorf("clampWorkers(%d, %d) = %d, want %d", tc.procs, tc.half, got, tc.want)
		}
	}
}

// TestSmallMuParallelMatchesSerial proves the clamp fix end to end at
// μ=2..4 with a worker budget far above the instance count: results must
// match the serial reference exactly.
func TestSmallMuParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for mu := 2; mu <= 4; mu++ {
		vp, vpCopy := buildTestPoly(rng, mu, 3, 3)
		serial := ProveReference(vp, transcript.New("clamp"))
		wide := ProveWith(vpCopy, transcript.New("clamp"), poly.Options{Procs: 64})
		equalResults(t, fmt.Sprintf("mu=%d", mu), wide, serial)
	}
}

// TestProveWithSteadyStateAllocs pins the allocation discipline of the
// fused prover: with a warmed arena, the per-round steady state is
// near-zero — the whole proof allocates only its result slices and the
// transcript's digest feedback, a small constant independent of μ.
func TestProveWithSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(75))
	mu := 10
	base := make([]*poly.MLE, 4)
	for k := range base {
		base[k] = randMLE(rng, mu)
	}
	coeff := randFr(rng)
	build := func() *VirtualPoly {
		vp := NewVirtualPoly(mu)
		for _, m := range base {
			vp.AddMLE(m) // ProveWith preserves tables: no clones needed
		}
		vp.AddTerm(ff.FrOne(), 0, 1, 2, 3)
		vp.AddTerm(coeff, 0, 3)
		return vp
	}
	opt := poly.Options{Procs: 1, Scratch: poly.NewScratch()}
	vp := build()                               // reusable: ProveWith never mutates the tables
	ProveWith(vp, transcript.New("alloc"), opt) // warm the arena
	avg := testing.AllocsPerRun(10, func() {
		ProveWith(vp, transcript.New("alloc"), opt)
	})
	perRound := avg / float64(mu)
	if perRound > 2 {
		t.Fatalf("fused prover allocates %.1f objects/round (%.0f/proof), want <= 2/round", perRound, avg)
	}

	// The per-round steady state must be near zero: growing the cube by
	// two variables (4× the work, two more rounds) must not add more
	// than a couple of allocations — everything round-scoped lives in
	// the arena or per-worker scratch.
	big := NewVirtualPoly(mu + 2)
	bigMLEs := make([]*poly.MLE, 4)
	for k := range bigMLEs {
		bigMLEs[k] = randMLE(rng, mu+2)
		big.AddMLE(bigMLEs[k])
	}
	big.AddTerm(ff.FrOne(), 0, 1, 2, 3)
	big.AddTerm(coeff, 0, 3)
	ProveWith(big, transcript.New("alloc"), opt)
	avgBig := testing.AllocsPerRun(10, func() {
		ProveWith(big, transcript.New("alloc"), opt)
	})
	if marginal := (avgBig - avg) / 2; marginal > 2 {
		t.Fatalf("each extra round allocates %.1f objects (mu=%d: %.0f, mu=%d: %.0f), want <= 2",
			marginal, mu, avg, mu+2, avgBig)
	}
}
