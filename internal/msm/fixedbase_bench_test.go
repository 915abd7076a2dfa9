package msm

import (
	"fmt"
	"math/rand"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// benchInputs derives a deterministic n-point problem for the package
// benchmarks (full-range scalars, distinct points).
func benchInputs(n int) ([]curve.G1Affine, []ff.Fr) {
	rng := rand.New(rand.NewSource(7))
	pts := randPoints(rng, n)
	scalars := make([]ff.Fr, n)
	for i := range scalars {
		scalars[i] = randFr(rng)
	}
	return pts, scalars
}

// BenchmarkMSMFast is the variable-base production path at the PCS
// commit size, the baseline the fixed-base table is measured against.
func BenchmarkMSMFast(b *testing.B) {
	for _, logN := range []int{10, 12} {
		pts, scalars := benchInputs(1 << logN)
		b.Run(fmt.Sprintf("n%d", logN), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MSMWithOptions(pts, scalars, Options{Parallel: true, Aggregation: AggregateGrouped})
			}
		})
	}
}

// BenchmarkMSMFixedBase sweeps the digit width around the heuristic —
// the data DefaultWindowFixedBase's breakpoints come from.
func BenchmarkMSMFixedBase(b *testing.B) {
	for _, logN := range []int{10, 12} {
		pts, scalars := benchInputs(1 << logN)
		for _, w := range []int{0, 11, 12, 13, 14, 15} {
			tbl := BuildFixedBaseTable(pts, w, 0)
			name := fmt.Sprintf("n%d/w%d", logN, tbl.Window())
			if w == 0 {
				name = fmt.Sprintf("n%d/wauto%d", logN, tbl.Window())
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					_ = MSMFixedBase(tbl, scalars, Options{Parallel: true, Aggregation: AggregateGrouped})
				}
			})
		}
	}
}

// BenchmarkBuildFixedBaseTable is the one-time precompute cost.
func BenchmarkBuildFixedBaseTable(b *testing.B) {
	pts, _ := benchInputs(1 << 12)
	b.Run("n12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := BuildFixedBaseTable(pts, 0, 0)
			_ = t
		}
	})
}
