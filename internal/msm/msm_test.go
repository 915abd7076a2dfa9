package msm

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
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

// TestSparseMSMAllocs pins the partition discipline: the ones and dense
// partitions are sized from one classification pass, so a witness-shaped
// input costs three partition allocations plus the dense MSM's own,
// not a chain of append regrowths; and an input the sparse route does not
// take (a dense table, σ's narrow indices) allocates nothing beyond its
// bucket MSM — no partition copy.
func TestSparseMSMAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	n := 4096
	pts := randPoints(rng, n)
	scalars := make([]ff.Fr, n)
	for i := range scalars {
		switch {
		case i%10 < 4:
		case i%10 < 9:
			scalars[i].SetOne()
		default:
			scalars[i] = randFr(rng)
		}
	}
	opt := Options{Procs: 1}
	var onesPts, densePts []curve.G1Affine
	var denseScalars []ff.Fr
	for i := range scalars {
		switch {
		case scalars[i].IsZero():
		case scalars[i].IsOne():
			onesPts = append(onesPts, pts[i])
		default:
			densePts = append(densePts, pts[i])
			denseScalars = append(denseScalars, scalars[i])
		}
	}
	work := make([]curve.G1Affine, len(onesPts)) // sumOnes sums in place
	kernels := testing.AllocsPerRun(5, func() {
		copy(work, onesPts)
		sumOnes(work, opt.procs())
		msmFast(densePts, denseScalars, opt)
	})
	sparse := testing.AllocsPerRun(5, func() { MSMWithOptions(pts, scalars, opt) })
	if extra := sparse - kernels; extra > 3 {
		t.Fatalf("sparse route allocates %.0f objects beyond its kernels' %.0f, want <= 3", extra, kernels)
	}

	dense := make([]ff.Fr, n)
	narrow := make([]ff.Fr, n)
	for i := range dense {
		dense[i] = randFr(rng)
		narrow[i].SetUint64(uint64(rng.Intn(3 * n)))
	}
	for _, tc := range []struct {
		name    string
		scalars []ff.Fr
		kernel  func()
	}{
		{"dense", dense, func() { msmFast(pts, dense, opt) }},
		{"narrow", narrow, func() { msmNarrow(pts, narrow, bits.Len(uint(3*n)), opt) }},
	} {
		kernel := testing.AllocsPerRun(5, tc.kernel)
		routed := testing.AllocsPerRun(5, func() { MSMWithOptions(pts, tc.scalars, opt) })
		if routed != kernel {
			t.Fatalf("%s input: routed MSM allocates %.0f objects, its kernel %.0f", tc.name, routed, kernel)
		}
	}
}

// widthScalars returns n scalars of bit length exactly w (w ≥ 1), the
// last one a bit shorter when w > 2, so the widest is not the last.
func widthScalars(rng *rand.Rand, n, w int) []ff.Fr {
	out := make([]ff.Fr, n)
	for i := range out {
		wi := w
		if i == n-1 && n > 1 && w > 2 {
			wi--
		}
		top := new(big.Int).Lsh(big.NewInt(1), uint(wi-1))
		v := new(big.Int).Rand(rng, top)
		out[i].SetBigInt(v.Add(v, top))
	}
	return out
}

// TestMSMRoutes: the routed MSM equals the Pippenger reference (and the
// naive oracle on one point) on every route — zeros and ones, narrow
// widths on both sides of a word and of ff.GLVBits, full width — at one
// point, as a plan of bucket blocks and as one of window tasks; and
// classify picks the route the input calls for.
func TestMSMRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const mu = 16 // σ's indices are μ+2 bits
	for _, n := range []int{1, minBatchAffinePoints - 1, 600} {
		pts := randPoints(rng, n)
		type input struct {
			scalars []ff.Fr
			sparse  bool
			bits    int // classify's width; > ff.GLVBits means the GLV path
		}
		inputs := map[string]input{}
		zeros, ones, witness, mixed := make([]ff.Fr, n), make([]ff.Fr, n), make([]ff.Fr, n), widthScalars(rng, n, mu+2)
		for i := range ones {
			ones[i].SetOne()
			switch {
			case i%20 < 9:
			case i%20 < 18:
				witness[i].SetOne()
			default:
				witness[i] = randFr(rng)
			}
			if i%3 == 0 {
				mixed[i].SetZero()
			}
		}
		if n > 1 {
			// Either side of the majority rule.
			for _, fifths := range []int{2, 3} {
				sc := make([]ff.Fr, n)
				for i := range sc {
					switch {
					case i%5 >= fifths:
						sc[i] = randFr(rng)
					case i%2 == 1:
						sc[i].SetOne()
					}
				}
				inputs[fmt.Sprintf("%d/5 trivial", fifths)] = input{sc, fifths == 3, ff.FrBits}
			}
		}
		inputs["all-zero"] = input{zeros, true, 0}
		inputs["all-one"] = input{ones, true, 0}
		if n > 1 {
			witness[n-1] = randFr(rng) // a dense scalar at every size
			inputs["45/45/10"] = input{witness, true, ff.FrBits}
			inputs["zeros+narrow"] = input{mixed, false, mu + 2}
		}
		for _, w := range []int{1, 2, mu + 2, 63, 64, 65, 128, 129} {
			inputs[fmt.Sprintf("width-%d", w)] = input{widthScalars(rng, n, w), w == 1, w}
		}
		full := make([]ff.Fr, n)
		for i := range full {
			full[i] = randFr(rng)
		}
		inputs["full-width"] = input{full, false, ff.FrBits}

		for name, in := range inputs {
			st, bits := classify(in.scalars)
			if sparseRoute(st) != in.sparse {
				t.Fatalf("n=%d %s: sparse route %v, want %v", n, name, !in.sparse, in.sparse)
			}
			if wide := bits > ff.GLVBits; wide != (in.bits > ff.GLVBits) || (!wide && st.Dense > 0 && bits != in.bits) {
				t.Fatalf("n=%d %s: classify width %d, want %d", n, name, bits, in.bits)
			}
			want := Pippenger(pts, in.scalars, Options{Aggregation: AggregateGrouped, Parallel: true})
			if n == 1 {
				if naive := Naive(pts, in.scalars); !naive.Equal(&want) {
					t.Fatalf("%s: Pippenger and Naive disagree", name)
				}
			}
			for _, opt := range []Options{
				{Aggregation: AggregateGrouped, Parallel: true, Procs: 2},
				{Aggregation: AggregateSerial},
			} {
				if got := MSMWithOptions(pts, in.scalars, opt); !got.Equal(&want) {
					t.Fatalf("n=%d %s %+v: routed MSM mismatch", n, name, opt)
				}
			}
			// The narrow kernel itself on every input within its width,
			// at forced windows too (zeros and ones route sparse).
			if in.bits <= ff.GLVBits {
				for _, c := range []int{0, 2, 7} {
					if got := msmNarrow(pts, in.scalars, max(in.bits, 1), Options{Window: c, Aggregation: AggregateGrouped}); !got.Equal(&want) {
						t.Fatalf("n=%d %s c=%d: narrow MSM mismatch", n, name, c)
					}
				}
			}
		}
	}
}

// runningSum is Σ points by serial mixed additions, the oracle of the
// ones tree.
func runningSum(points []curve.G1Affine) curve.G1Jac {
	var sum curve.G1Jac
	for i := range points {
		sum.AddMixed(&points[i])
	}
	return sum
}

// TestTreeSum: the ones tree (sumOnes) equals the running sum on sizes
// below, at and across minBatchAffinePoints and a genChunk level.
func TestTreeSum(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 33, minBatchAffinePoints - 1, minBatchAffinePoints, 2*genChunk + 3} {
		pts := randPoints(rng, n)
		want := runningSum(pts)
		got := sumOnes(append([]curve.G1Affine(nil), pts...), 2)
		if !got.Equal(&want) {
			t.Fatalf("tree sum mismatch at n=%d", n)
		}
	}
}

// TestSumOnesEdgeCases: the ones tree and SparseMSM over all-one scalars
// against Naive on the inputs whose batched additions leave the generic
// chord: tiny and odd lengths, repeated points (doublings), P next to −P
// (cancellation to infinity), points at infinity and 2^12 copies of one
// point (a selector commitment), for procs 1, 2 and 3.
func TestSumOnesEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	base := randPoints(rng, 1025)
	cases := map[string][]curve.G1Affine{}
	for _, n := range []int{0, 1, 2, 3, 257, 1025} {
		cases[fmt.Sprintf("n=%d", n)] = base[:n]
	}
	repeated := make([]curve.G1Affine, 777)
	cancel := make([]curve.G1Affine, 2*minBatchAffinePoints+1)
	for i := range repeated {
		repeated[i] = base[i%5]
	}
	for i := range cancel {
		cancel[i] = base[i/2]
		if i%2 == 1 {
			cancel[i].Neg(&base[i/2])
		}
	}
	// Halves that cancel exactly: the first level empties every slot.
	halves := append(append([]curve.G1Affine(nil), base[:600]...), base[:600]...)
	for i := 600; i < len(halves); i++ {
		halves[i].Neg(&halves[i])
	}
	withInf := append([]curve.G1Affine(nil), base[:300]...)
	for i := 0; i < len(withInf); i += 7 {
		withInf[i] = curve.G1Infinity()
	}
	equal := make([]curve.G1Affine, 1<<12)
	for i := range equal {
		equal[i] = base[0]
	}
	cases["repeated"], cases["cancel"], cases["halves"] = repeated, cancel, halves
	cases["infinity"], cases["equal-2^12"] = withInf, equal
	for name, pts := range cases {
		ones := make([]ff.Fr, len(pts))
		for i := range ones {
			ones[i].SetOne()
		}
		want := Naive(pts, ones)
		for _, procs := range []int{1, 2, 3} {
			if got := sumOnes(append([]curve.G1Affine(nil), pts...), procs); !got.Equal(&want) {
				t.Fatalf("%s procs=%d: sumOnes mismatch", name, procs)
			}
			got := SparseMSM(pts, ones, Options{Parallel: true, Procs: procs, Aggregation: AggregateGrouped})
			if !got.Equal(&want) {
				t.Fatalf("%s procs=%d: SparseMSM mismatch", name, procs)
			}
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

// TestAggregateGroupedAffine: the lockstep aggregation over affine
// buckets equals the serial running sum, with empty buckets (whole groups
// of them, and a group's top), equal buckets inside and across groups
// (doublings when a running sum meets its next bucket) and a bucket that
// cancels the running sum above it — for one block, and for blocks of
// every size a task holds side by side (groups shorter than GroupSize
// join the lockstep late).
func TestAggregateGroupedAffine(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	var s aggScratch
	for _, sizes := range [][]int{
		{GroupSize}, {16 * GroupSize}, {64 * GroupSize},
		{2, 8, 256, 4, 32, 16, 2, 128},
		{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
	} {
		nb := 0
		for _, n := range sizes {
			nb += n
		}
		pts := randPoints(rng, nb)
		for i := range pts {
			switch {
			case i%GroupSize == GroupSize-1 && i%3 == 0, i/GroupSize == 2:
				pts[i] = curve.G1Infinity()
			case i%11 == 5:
				pts[i] = pts[i-1]
			case i%13 == 7 && i >= GroupSize:
				pts[i] = pts[i-GroupSize/2]
			}
		}
		if nb > GroupSize {
			// The top two buckets of group 1 cancel: its running sum
			// returns to ∞.
			pts[2*GroupSize-2].Neg(&pts[2*GroupSize-1])
		}
		sums := make([]curve.G1Jac, len(sizes))
		s.aggregateGroupedAffine(pts, sizes, sums)
		base := 0
		for k, n := range sizes {
			jac := make([]curve.G1Jac, n)
			for i := range jac {
				jac[i].FromAffine(&pts[base+i])
			}
			if want := aggregateSerial(jac); !sums[k].Equal(&want) {
				t.Fatalf("sizes %v: block %d (%d buckets): lockstep aggregation mismatch", sizes, k, n)
			}
			base += n
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

// msmFast and msmNarrow run one dense job down the GLV or the narrow
// route through bucketSums, as MSMs does after routing it.
func msmFast(points []curve.G1Affine, scalars []ff.Fr, opt Options) curve.G1Jac {
	return runPlan(glvPlan(0, points, scalars, opt), opt)
}

func msmNarrow(points []curve.G1Affine, scalars []ff.Fr, bits int, opt Options) curve.G1Jac {
	return runPlan(narrowPlan(0, points, scalars, bits, opt), opt)
}

// runPlan holds the plan and its sum the way MSMs does, so the kernels
// allocate what MSMs allocates for a job it routes straight to them.
func runPlan(p plan, opt Options) curve.G1Jac {
	plans := append(make([]plan, 0, 1), p)
	out := make([]curve.G1Jac, len(plans))
	bucketSums(plans, out, opt)
	return out[0]
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

// recode runs signedDigits on v — a magnitude below 2^bits, handed over
// in as many words as the callers use for that width (2 for a GLV half,
// 4 for a full scalar) — into nw digits. It reports false where the
// recoder panics because the top window would carry out, and otherwise
// checks that the digits are in range and sum back to ±v.
func recode(t *testing.T, v *big.Int, bits, c, nw int, neg bool) bool {
	t.Helper()
	words := make([]uint64, (bits+63)/64)
	mask := new(big.Int).SetUint64(^uint64(0))
	for i := range words {
		words[i] = new(big.Int).And(new(big.Int).Rsh(v, uint(64*i)), mask).Uint64()
	}
	digits := make([]int16, nw)
	ok := func() (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		signedDigits(words, c, nw, neg, digits, 1)
		return true
	}()
	if !ok {
		return false
	}
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
		t.Fatalf("bits=%d c=%d neg=%v v=%s: recoded to %s", bits, c, neg, v, got)
	}
	// Raw digits lie in [-2^(c-1), 2^(c-1)); the neg flip can map the
	// bottom end to +2^(c-1). Buckets only need |d| ≤ 2^(c-1) (index
	// |d|-1 into 2^(c-1) buckets).
	half := int64(1) << (c - 1)
	for _, d := range digits {
		if int64(d) < -half || int64(d) > half {
			t.Fatalf("bits=%d c=%d: digit %d out of range", bits, c, d)
		}
	}
	return true
}

// carryPatterns are the magnitudes below 2^bits that push the recoder's
// carry chain hardest at width c: all ones (every window carries, and the
// top window receives a carry on top of its own bits), the top bit alone,
// and every window's raw digit at 2^(c-1) — the value that recodes to
// −2^(c-1) and carries — with the ones below it saturated or not.
func carryPatterns(bits, c int) []*big.Int {
	top := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	allOnes := new(big.Int).Sub(top, big.NewInt(1))
	halves := new(big.Int)
	for i := 0; i*c < bits; i++ {
		halves.Or(halves, new(big.Int).Lsh(big.NewInt(1), uint(i*c+c-1)))
	}
	halves.And(halves, allOnes)
	saturated := new(big.Int).Or(halves, new(big.Int).Rsh(allOnes, 1))
	return []*big.Int{
		allOnes,
		new(big.Int).Rsh(top, 1),
		halves,
		saturated,
		new(big.Int).Sub(allOnes, big.NewInt(int64(1)<<(c-1))),
	}
}

// TestSignedWindowsTight: at every width the fast path and the generator
// can use, signedWindows is enough for every carry-forcing magnitude of a
// GLV half (128 bits) and of a full scalar (255 bits), and one window
// fewer is not.
func TestSignedWindowsTight(t *testing.T) {
	for _, bits := range []int{ff.GLVBits, ff.FrBits} {
		for c := 2; c <= 15; c++ {
			nw := signedWindows(bits, c)
			short := false
			for _, v := range carryPatterns(bits, c) {
				for _, neg := range []bool{false, true} {
					if !recode(t, v, bits, c, nw, neg) {
						t.Fatalf("bits=%d c=%d: %s does not recode in %d windows", bits, c, v, nw)
					}
				}
				short = short || !recode(t, v, bits, c, nw-1, false)
			}
			if !short {
				t.Fatalf("bits=%d c=%d: every pattern recodes in %d windows, so %d is not tight", bits, c, nw-1, nw)
			}
		}
	}
}

// TestSignedDigitsRoundTrip: the carry-corrected recoder reconstructs the
// value in signedWindows(bits, c) digits for boundary and random
// magnitudes of both widths the package recodes.
func TestSignedDigitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for _, bits := range []int{ff.GLVBits, ff.FrBits} {
		top := new(big.Int).Lsh(big.NewInt(1), uint(bits))
		cases := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(top, big.NewInt(1)), // all ones
			new(big.Int).Rsh(top, 1),
		}
		if bits == ff.FrBits {
			cases = append(cases, new(big.Int).Sub(ff.FrModulusBig(), big.NewInt(1)))
		}
		for i := 0; i < 50; i++ {
			cases = append(cases, new(big.Int).Rand(rng, top))
		}
		for _, v := range cases {
			for _, c := range []int{2, 3, 5, 8, 12, 13, 15} {
				for _, neg := range []bool{false, true} {
					if !recode(t, v, bits, c, signedWindows(bits, c), neg) {
						t.Fatalf("bits=%d c=%d v=%s: recoding overflowed", bits, c, v)
					}
				}
			}
		}
	}
}

// TestMSMEveryWindow: the fast path at every width it accepts — bucket
// blocks below c = 11, window tasks from it — on sizes from one point to
// past minChunkPoints, under both aggregation options.
func TestMSMEveryWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sizes := []int{1, 255, 256, 2049}
	if testing.Short() {
		sizes = []int{1, 255, 256}
	}
	for _, n := range sizes {
		pts := randPoints(rng, n)
		scalars := make([]ff.Fr, n)
		for i := range scalars {
			scalars[i] = randFr(rng)
		}
		want := Naive(pts, scalars)
		for c := 2; c <= 15; c++ {
			for _, agg := range []Aggregation{AggregateSerial, AggregateGrouped} {
				got := MSMWithOptions(pts, scalars, Options{Window: c, Aggregation: agg, Parallel: true})
				if !got.Equal(&want) {
					t.Fatalf("n=%d c=%d agg=%d: MSM mismatch", n, c, agg)
				}
			}
		}
	}
}

// TestScheduleWindows: every (window, effective point) pair is in exactly
// one task; nothing is cut when procs is 1 or divides the window count;
// otherwise the tasks split evenly over procs.
func TestScheduleWindows(t *testing.T) {
	for _, tc := range []struct{ nw, nPts, procs, wantTasks int }{
		{10, 1 << 17, 1, 10},
		{10, 1 << 17, 2, 10},
		{11, 1 << 17, 2, 12},  // 10 whole windows + the 11th in halves
		{13, 1 << 14, 2, 14},  // 12 + 2
		{10, 1 << 17, 4, 12},  // 8 + 2 windows in halves
		{10, 1 << 17, 3, 12},  // 9 + 1 window in thirds
		{11, 3000, 2, 11},     // a half would be under minChunkPoints
		{4, 1 << 16, 16, 16},  // 4 windows in quarters
		{65, 1 << 12, 2, 66},  // c = 2
		{10, 1 << 17, 16, 80}, // 10 windows in eighths
	} {
		tasks := scheduleWindows(tc.nw, tc.nPts, tc.procs)
		if len(tasks) != tc.wantTasks {
			t.Fatalf("%+v: %d tasks", tc, len(tasks))
		}
		covered := make([]int, tc.nw)
		for _, task := range tasks {
			if task.lo != covered[task.w] || task.hi <= task.lo || task.hi > tc.nPts {
				t.Fatalf("%+v: task %+v leaves a gap or overlaps", tc, task)
			}
			covered[task.w] = task.hi
		}
		for w, hi := range covered {
			if hi != tc.nPts {
				t.Fatalf("%+v: window %d covered to %d", tc, w, hi)
			}
		}
		if len(tasks)%tc.procs != 0 && len(tasks) != tc.nw {
			t.Fatalf("%+v: %d chunked tasks do not divide over %d goroutines", tc, len(tasks), tc.procs)
		}
	}
}

// TestMSMCrossValidation is the property test over the full configuration
// space: fast path and Pippenger reference × window width × aggregation
// schedule × parallel mode against the naive scalar-mul oracle, on inputs
// seeded with the edge cases every regime must survive — zeros, ones, -1
// (max scalar), λ and -λ (degenerate GLV splits), tiny and full-width
// scalars, points at infinity, and repeated points (forcing bucket
// doublings), at sizes from one point to a few hundred.
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

// TestOneBudgetRule pins what msm adds to the one budget rule (par.Procs,
// which a parallel MSM resolves Procs by): Parallel == false forces a
// serial MSM whatever Procs says.
func TestOneBudgetRule(t *testing.T) {
	for _, procs := range []int{-1, 0, 1, 3, 64} {
		if got := (&Options{Procs: procs}).procs(); got != 1 {
			t.Fatalf("msm: serial MSM with Procs %d resolves to %d workers, want 1", procs, got)
		}
	}
}
