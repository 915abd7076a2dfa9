package msm

import (
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/poly"
)

func randFr(rng *rand.Rand) ff.Fr {
	v := new(big.Int).Rand(rng, ff.FrModulusBig())
	var e ff.Fr
	e.SetBigInt(v)
	return e
}

// randPoints returns n distinct multiples of the generator.
func randPoints(rng *rand.Rand, n int) []curve.G1Affine {
	out := make([]curve.G1Affine, n)
	var g, p curve.G1Jac
	ga := curve.G1Generator()
	g.FromAffine(&ga)
	p.Set(&g)
	for i := 0; i < n; i++ {
		out[i].FromJacobian(&p)
		// cheap pseudo-random walk: p = 2p + G occasionally
		p.Double(&p)
		if rng.Intn(2) == 1 {
			p.Add(&p, &g)
		}
	}
	return out
}

func TestScalarWords(t *testing.T) {
	var s ff.Fr
	s.SetUint64(0xdeadbeef12345678)
	w := s.CanonicalLimbs()
	if w[0] != 0xdeadbeef12345678 || w[1] != 0 || w[2] != 0 || w[3] != 0 {
		t.Fatalf("canonical limbs wrong: %x", w)
	}
}

func TestDigitAt(t *testing.T) {
	w := []uint64{0xffffffffffffffff, 0x1, 0, 0}
	if d := digitAt(w, 0, 8); d != 0xff {
		t.Fatalf("digit(0,8) = %x", d)
	}
	if d := digitAt(w, 60, 8); d != 0x1f {
		// bits 60..63 are 1111, bits 64..67 are 0001 → 0001_1111
		t.Fatalf("digit(60,8) = %x", d)
	}
}

func TestMSMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, n := range []int{1, 2, 3, 17, 64, 100} {
		pts := randPoints(rng, n)
		scalars := make([]ff.Fr, n)
		for i := range scalars {
			scalars[i] = randFr(rng)
		}
		want := Naive(pts, scalars)
		for _, w := range []int{0, 4, 7, 9} {
			for _, agg := range []Aggregation{AggregateSerial, AggregateGrouped} {
				got := MSMWithOptions(pts, scalars, Options{Window: w, Aggregation: agg})
				if !got.Equal(&want) {
					t.Fatalf("n=%d window=%d agg=%d: MSM mismatch", n, w, agg)
				}
			}
		}
		// parallel path
		got := MSM(pts, scalars)
		if !got.Equal(&want) {
			t.Fatalf("n=%d: parallel MSM mismatch", n)
		}
	}
}

func TestMSMEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// empty input
	var empty curve.G1Jac
	if got := MSM(nil, nil); !got.Equal(&empty) {
		t.Fatal("empty MSM should be infinity")
	}
	// all-zero scalars
	pts := randPoints(rng, 10)
	zeros := make([]ff.Fr, 10)
	if got := MSM(pts, zeros); !got.IsInfinity() {
		t.Fatal("all-zero MSM should be infinity")
	}
	// single max scalar (q-1)
	var s ff.Fr
	s.SetBigInt(new(big.Int).Sub(ff.FrModulusBig(), big.NewInt(1)))
	want := Naive(pts[:1], []ff.Fr{s})
	got := MSM(pts[:1], []ff.Fr{s})
	if !got.Equal(&want) {
		t.Fatal("q-1 scalar mismatch")
	}
	// points at infinity are absorbed
	inf := curve.G1Infinity()
	ptsInf := []curve.G1Affine{pts[0], inf, pts[1]}
	ss := []ff.Fr{randFr(rng), randFr(rng), randFr(rng)}
	want = Naive(ptsInf, ss)
	got = MSM(ptsInf, ss)
	if !got.Equal(&want) {
		t.Fatal("infinity point mismatch")
	}
}

func TestSparseMSM(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := 200
	pts := randPoints(rng, n)
	scalars := make([]ff.Fr, n)
	// paper's witness statistics: ~45% zeros, ~45% ones, ~10% dense
	for i := range scalars {
		switch {
		case i%10 < 4:
			// zero
		case i%10 < 9:
			scalars[i].SetOne()
		default:
			scalars[i] = randFr(rng)
		}
	}
	st := ClassifyScalars(scalars)
	if st.Zeros+st.Ones+st.Dense != n {
		t.Fatal("classification does not partition")
	}
	if st.Dense == 0 || st.Ones == 0 || st.Zeros == 0 {
		t.Fatal("test distribution degenerate")
	}
	want := Naive(pts, scalars)
	got := SparseMSM(pts, scalars, Options{Window: 8})
	if !got.Equal(&want) {
		t.Fatal("sparse MSM mismatch")
	}
}

func TestTreeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 33} {
		pts := randPoints(rng, n)
		var want curve.G1Jac
		for i := range pts {
			want.AddMixed(&pts[i])
		}
		got := TreeSum(pts)
		if !got.Equal(&want) {
			t.Fatalf("tree sum mismatch at n=%d", n)
		}
	}
}

func TestAggregationSchemesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	// direct check on aggregateBuckets: Σ (i+1)·B_i
	for _, nb := range []int{1, 15, 16, 17, 127, 255} {
		buckets := make([]curve.G1Jac, nb)
		pts := randPoints(rng, nb)
		for i := range buckets {
			buckets[i].FromAffine(&pts[i])
		}
		a := aggregateSerial(buckets)
		b := aggregateGrouped(buckets, GroupSize)
		if !a.Equal(&b) {
			t.Fatalf("aggregation mismatch at %d buckets", nb)
		}
		// oracle: Σ (i+1)·B_i
		var want curve.G1Jac
		for i := range buckets {
			var s ff.Fr
			s.SetUint64(uint64(i + 1))
			var term curve.G1Jac
			term.ScalarMul(&buckets[i], &s)
			want.Add(&want, &term)
		}
		if !a.Equal(&want) {
			t.Fatalf("serial aggregation wrong at %d buckets", nb)
		}
	}
}

func TestDefaultWindow(t *testing.T) {
	if w := DefaultWindow(16); w < 4 {
		t.Fatal("window too small")
	}
	if w := DefaultWindow(1 << 22); w > 10 {
		t.Fatal("window exceeds design space")
	}
}

func BenchmarkMSM1024(b *testing.B) {
	rng := rand.New(rand.NewSource(56))
	pts := randPoints(rng, 1024)
	scalars := make([]ff.Fr, 1024)
	for i := range scalars {
		scalars[i] = randFr(rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MSM(pts, scalars)
	}
}

func BenchmarkSparseMSM1024(b *testing.B) {
	rng := rand.New(rand.NewSource(57))
	pts := randPoints(rng, 1024)
	scalars := make([]ff.Fr, 1024)
	for i := range scalars {
		switch {
		case i%10 < 4:
		case i%10 < 9:
			scalars[i].SetOne()
		default:
			scalars[i] = randFr(rng)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SparseMSM(pts, scalars, Options{Window: 8, Parallel: true})
	}
}

// paths are the two bucket MSMs of the package: the fast path every caller
// runs and the retained Pippenger reference.
var paths = []struct {
	name string
	run  func([]curve.G1Affine, []ff.Fr, Options) curve.G1Jac
}{
	{"fast", MSMWithOptions},
	{"pippenger", Pippenger},
}

// TestSignedDigitsRoundTrip: the carry-corrected recoder reconstructs the
// value for adversarial bit patterns across window widths.
func TestSignedDigitsRoundTrip(t *testing.T) {
	max := new(big.Int)
	cases := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		max.Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(1)), // all ones
		new(big.Int).Lsh(big.NewInt(1), 254),
		new(big.Int).Sub(ff.FrModulusBig(), big.NewInt(1)),
	}
	rng := rand.New(rand.NewSource(58))
	for i := 0; i < 50; i++ {
		cases = append(cases, new(big.Int).Rand(rng, ff.FrModulusBig()))
	}
	for _, v := range cases {
		var buf [32]byte
		v.FillBytes(buf[:])
		var words [4]uint64
		for i := 0; i < 4; i++ {
			for j := 0; j < 8; j++ {
				words[i] |= uint64(buf[31-(i*8+j)]) << (8 * j)
			}
		}
		for _, c := range []int{2, 3, 5, 8, 13, 15} {
			for _, neg := range []bool{false, true} {
				nw := signedWindows(255, c)
				digits := make([]int16, nw)
				signedDigits(words[:], c, nw, neg, digits)
				got := new(big.Int)
				for i := nw - 1; i >= 0; i-- {
					got.Lsh(got, uint(c))
					got.Add(got, big.NewInt(int64(digits[i])))
				}
				want := new(big.Int).Set(v)
				if neg {
					want.Neg(want)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("c=%d neg=%v v=%s: recoded to %s", c, neg, v, got)
				}
				// Raw digits lie in [-2^(c-1), 2^(c-1)); the neg flip can
				// map the bottom end to +2^(c-1). Buckets only need
				// |d| ≤ 2^(c-1) (index |d|-1 into 2^(c-1) buckets).
				half := int64(1) << (c - 1)
				for _, d := range digits {
					if int64(d) < -half || int64(d) > half {
						t.Fatalf("c=%d: digit %d out of range", c, d)
					}
				}
			}
		}
	}
}

// TestMSMCrossValidation is the property test over the full configuration
// space: fast path and Pippenger reference × window width × aggregation
// schedule × parallel mode against the naive scalar-mul oracle, on inputs
// seeded with the edge cases every regime must survive — zeros, ones, -1
// (max scalar), λ and -λ (degenerate GLV splits), tiny and full-width
// scalars, points at infinity, and repeated points (forcing bucket
// doublings). The sizes straddle minBatchAffinePoints (2n effective
// points), so the fast path runs on Jacobian and on batch-affine buckets.
func TestMSMCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{1, 2, 3, 30, minBatchAffinePoints/2 - 1, minBatchAffinePoints / 2} {
		pts := randPoints(rng, n)
		scalars := make([]ff.Fr, n)
		for i := range scalars {
			scalars[i] = randFr(rng)
		}
		// Edge-case injections, cycling through the hostile values.
		rMinus1 := new(big.Int).Sub(ff.FrModulusBig(), big.NewInt(1))
		lambda := ff.GLVLambda()
		negLambda := new(big.Int).Sub(ff.FrModulusBig(), lambda)
		for i := 0; i < n; i++ {
			switch i % 9 {
			case 1:
				scalars[i].SetZero()
			case 2:
				scalars[i].SetOne()
			case 3:
				scalars[i].SetBigInt(rMinus1)
			case 4:
				scalars[i].SetBigInt(lambda)
			case 5:
				scalars[i].SetBigInt(negLambda)
			case 6:
				scalars[i].SetUint64(uint64(i) + 2)
			case 7:
				if i > 0 {
					pts[i] = pts[i-1] // repeated point → bucket doubling
				}
			case 8:
				pts[i] = curve.G1Infinity()
			}
		}
		want := Naive(pts, scalars)
		for _, path := range paths {
			for _, w := range []int{0, 2, 5, 9} {
				for _, agg := range []Aggregation{AggregateSerial, AggregateGrouped} {
					for _, par := range []bool{false, true} {
						if testing.Short() && (w == 2 || (par && agg == AggregateSerial)) {
							continue
						}
						got := path.run(pts, scalars, Options{Window: w, Aggregation: agg, Parallel: par})
						if !got.Equal(&want) {
							t.Fatalf("n=%d %s w=%d agg=%d par=%v: MSM mismatch", n, path.name, w, agg, par)
						}
					}
				}
			}
		}
		got := SparseMSM(pts, scalars, Options{Parallel: true})
		if !got.Equal(&want) {
			t.Fatalf("n=%d: sparse MSM mismatch", n)
		}
	}
}

// TestMSMProcsBound: explicit Procs values give identical results (the
// chunked schedule must be deterministic under any goroutine budget).
func TestMSMProcsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	n := 64
	pts := randPoints(rng, n)
	scalars := make([]ff.Fr, n)
	for i := range scalars {
		scalars[i] = randFr(rng)
	}
	want := Naive(pts, scalars)
	for _, path := range paths {
		for _, procs := range []int{-1, 0, 1, 2, 3, 16} {
			got := path.run(pts, scalars, Options{Parallel: true, Procs: procs})
			if !got.Equal(&want) {
				t.Fatalf("%s procs=%d: MSM mismatch", path.name, procs)
			}
		}
	}
}

// TestDefaultWindowFast: monotone in size and within the clamp range.
func TestDefaultWindowFast(t *testing.T) {
	prev := 0
	for _, n := range []int{1, 100, 1000, 1 << 13, 1 << 16, 1 << 19, 1 << 22} {
		w := DefaultWindowFast(n)
		if w < 2 || w > 15 {
			t.Fatalf("window %d out of range at n=%d", w, n)
		}
		if w < prev {
			t.Fatalf("window shrank with size at n=%d", n)
		}
		prev = w
	}
}

// TestOneBudgetRule pins the single rule for a goroutine budget: the
// MSM layer resolves Procs exactly as the execution context it is derived
// from (poly.Options, which sumcheck.ProveWith and the poly kernels resolve
// through) — a non-positive budget means every CPU, never one goroutine —
// and only Parallel == false forces a serial MSM.
func TestOneBudgetRule(t *testing.T) {
	for _, procs := range []int{-1, 0, 1, 3, 64} {
		want := procs
		if procs <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		if got := (poly.Options{Procs: procs}).Workers(); got != want {
			t.Fatalf("poly: Procs %d resolves to %d workers, want %d", procs, got, want)
		}
		if got := (&Options{Parallel: true, Procs: procs}).procs(); got != want {
			t.Fatalf("msm: Procs %d resolves to %d workers, want %d", procs, got, want)
		}
		if got := (&Options{Procs: procs}).procs(); got != 1 {
			t.Fatalf("msm: serial MSM with Procs %d resolves to %d workers, want 1", procs, got)
		}
	}
}
