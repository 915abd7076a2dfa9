package msm

import (
	"math/rand"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

type skewedInput struct {
	pts     []curve.G1Affine
	scalars []ff.Fr
}

// skewedInputs are scalar/point distributions that pile bucket updates
// onto few buckets — what selector and permutation columns look like —
// so the batch-affine accumulator's conflict queue and its pairwise
// reduction carry the whole MSM.
func skewedInputs(rng *rand.Rand, n int) map[string]skewedInput {
	fill := func(f func(i int) ff.Fr) []ff.Fr {
		out := make([]ff.Fr, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	var one, minusOne ff.Fr
	one.SetOne()
	minusOne.Neg(&one)
	x, y := randFr(rng), randFr(rng)
	pts := randPoints(rng, n)

	// One point repeated: colliding updates are doublings; alternating
	// with its negative they cancel, pair by pair, down to infinity.
	same := make([]curve.G1Affine, n)
	cancel := make([]curve.G1Affine, n)
	for i := range same {
		same[i] = pts[0]
		cancel[i] = pts[0]
		if i%2 == 1 {
			cancel[i].Neg(&pts[0])
		}
	}
	return map[string]skewedInput{
		"all-equal": {pts, fill(func(int) ff.Fr { return x })},
		"all-ones":  {pts, fill(func(int) ff.Fr { return one })},
		"plus-minus-one": {pts, fill(func(i int) ff.Fr {
			if i%3 == 0 {
				return minusOne
			}
			return one
		})},
		"two-values": {pts, fill(func(i int) ff.Fr {
			if i%2 == 0 {
				return x
			}
			return y
		})},
		"hot-bucket": {pts, fill(func(i int) ff.Fr {
			if i%4 == 0 {
				return randFr(rng)
			}
			return x
		})},
		"same-point":      {same, fill(func(int) ff.Fr { return x })},
		"cancelling-pair": {cancel, fill(func(int) ff.Fr { return one })},
	}
}

// TestMSMSkewedScalars runs the fast path (Jacobian buckets at n = 40,
// batch-affine above) and the Pippenger reference over the skewed
// distributions against the naive oracle. The sizes put the conflict
// queue past its reduction threshold both for the size-picked window and
// for a forced wide one (window 11: 1024 buckets, full 512-update
// batches).
func TestMSMSkewedScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sizes := []int{40, 300}
	if !testing.Short() {
		sizes = append(sizes, 1500)
	}
	for _, n := range sizes {
		for name, in := range skewedInputs(rng, n) {
			want := Naive(in.pts, in.scalars)
			if ref := Pippenger(in.pts, in.scalars, Options{Aggregation: AggregateGrouped, Parallel: true}); !ref.Equal(&want) {
				t.Fatalf("%s n=%d: Pippenger reference mismatch", name, n)
			}
			for _, w := range []int{0, 11} {
				for _, par := range []bool{false, true} {
					got := MSMWithOptions(in.pts, in.scalars, Options{
						Window: w, Aggregation: AggregateGrouped, Parallel: par,
					})
					if !got.Equal(&want) {
						t.Fatalf("%s n=%d w=%d par=%v: MSM mismatch", name, n, w, par)
					}
				}
			}
		}
	}
}

// TestAffineAccCollisionInversions pins the cost of the worst collision
// pattern: n updates of one bucket must share inversions like n updates
// of distinct buckets do — O(n/batch) of them, where draining the queue
// one update per batch took n.
func TestAffineAccCollisionInversions(t *testing.T) {
	const n = 4096
	pts := randPoints(rand.New(rand.NewSource(89)), n)
	acc := newAffineAcc(1 << 10) // window 11, the width the fast path picks at n=4096
	for i := range pts {
		acc.add(7, &pts[i], false)
	}
	buckets := acc.finish()
	var got curve.G1Jac
	got.FromAffine(&buckets[7])
	if want := runningSum(pts); !got.Equal(&want) {
		t.Fatal("colliding updates do not sum to the bucket")
	}
	for i := range buckets {
		if i != 7 && !buckets[i].Inf {
			t.Fatalf("bucket %d touched", i)
		}
	}
	if limit := 4*n/acc.batch + 16; acc.inversions > limit {
		t.Fatalf("%d inversions for %d colliding updates (batch %d), want at most %d",
			acc.inversions, n, acc.batch, limit)
	}
	t.Logf("%d colliding updates: %d inversions (batch %d)", n, acc.inversions, acc.batch)
}
