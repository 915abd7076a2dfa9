package msm

import (
	"sync"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/par"
)

// Fixed-base scalar multiplication of the G1 generator — the kernel of
// the SRS ceremony, which needs [s]·G for 2^μ scalars and nothing else.
// The table holds every signed-digit multiple of every window,
//
//	genTable[w·2^(c-1) + j-1] = [j·2^(cw)]·G   for j = 1..2^(c-1),
//
// so one scalar costs one table lookup and one addition per window and no
// doubling at all. A chunk of scalars advances window by window in
// lockstep, each scalar owning an affine accumulator, so the additions of
// one step share a field inversion (curve.BatchAddMixed) and a window's
// 2^(c-1) table rows stay cache-resident while the whole chunk reads them;
// the results are affine as they stand, with nothing to normalise.

const (
	// genWindow is the digit width c: 29·2^8 points ≈ 0.75 MB of table,
	// the widest that stays under 1 MB.
	genWindow = 9
	// genWindows is signedWindows(ff.FrBits, genWindow) = 29: the top
	// window holds only 255 − 28·9 = 3 scalar bits, so no carry window.
	genWindows = (ff.FrBits+1)/genWindow + 1
	// genChunk is how many additions share one field inversion.
	genChunk = 1024
)

var (
	genTableOnce sync.Once
	genTable     []curve.G1Affine
)

// buildGenTable fills genTable: per window a running sum of the window
// base in Jacobian form, normalised with one shared inversion per window.
func buildGenTable() {
	const half = 1 << (genWindow - 1)
	genTable = make([]curve.G1Affine, genWindows*half)
	g := curve.G1Generator()
	var base curve.G1Jac
	base.FromAffine(&g)
	row := make([]curve.G1Jac, half)
	for w := 0; w < genWindows; w++ {
		row[0] = base
		for j := 1; j < half; j++ {
			row[j].Add(&row[j-1], &base)
		}
		curve.BatchNormalizeJac(genTable[w*half:(w+1)*half], row)
		// [2^(c(w+1))]·G = 2·[2^(c-1)·2^(cw)]·G, the row's last entry.
		base.Double(&row[half-1])
	}
}

// MulGenerator returns [scalars[i]]·G for every scalar, in affine form,
// using all CPUs. The table is built on first use and kept for the life of
// the process.
func MulGenerator(scalars []ff.Fr) []curve.G1Affine {
	genTableOnce.Do(buildGenTable)
	const half = 1 << (genWindow - 1)
	out := make([]curve.G1Affine, len(scalars))
	forChunks(len(scalars), par.Procs(0), func(from, to int, s *chunkScratch) {
		acc := out[from:to]
		digits := make([]int16, genWindows*len(acc))
		for i := range acc {
			w := scalars[from+i].CanonicalLimbs()
			signedDigits(w[:], genWindow, genWindows, false, digits[i:], len(acc))
			acc[i] = curve.G1Infinity()
		}
		for w := 0; w < genWindows; w++ {
			row := genTable[w*half : (w+1)*half]
			wd := digits[w*len(acc) : (w+1)*len(acc)]
			for i := range acc {
				switch d := wd[i]; {
				case d > 0:
					s.adds[i] = row[d-1]
				case d < 0:
					s.adds[i].Neg(&row[-d-1])
				default:
					s.adds[i] = curve.G1Infinity()
				}
			}
			s.addInto(acc, s.adds)
		}
	})
	return out
}

// SumPairs returns one level of the pairwise reduction tree over points,
// out[i] = points[2i] + points[2i+1], in affine form, using all CPUs.
// len(points) must be even. It is how the PST ceremony derives each
// Lagrange layer from the one below it.
func SumPairs(points []curve.G1Affine) []curve.G1Affine {
	if len(points)%2 != 0 {
		panic("msm: SumPairs needs an even number of points")
	}
	out := make([]curve.G1Affine, len(points)/2)
	forChunks(len(out), par.Procs(0), func(from, to int, s *chunkScratch) {
		for i := from; i < to; i++ {
			out[i] = points[2*i]
			s.adds[i-from] = points[2*i+1]
		}
		s.addInto(out[from:to], s.adds)
	})
	return out
}

// minBatchAffinePoints is the point count below which sumOnes adds the
// rest with Jacobian mixed additions: a tree level of fewer points would
// pay a shared inversion for a handful of additions.
const minBatchAffinePoints = 256

// sumOnes returns Σ points — the part of a sparse MSM whose scalars are
// 1 — as the pairwise reduction tree of §4.2 on batched affine additions:
// each level adds the upper half of the points onto the lower half in
// place, up to genChunk additions to a shared inversion, until fewer than
// minBatchAffinePoints are left for Jacobian mixed additions. It uses
// procs goroutines and overwrites points.
func sumOnes(points []curve.G1Affine, procs int) curve.G1Jac {
	for len(points) >= minBatchAffinePoints {
		h := len(points) / 2
		forChunks(h, procs, func(from, to int, s *chunkScratch) {
			s.addInto(points[from:to], points[h+from:h+to])
		})
		if len(points)%2 == 1 {
			points[h] = points[2*h]
			h++
		}
		points = points[:h]
	}
	var sum curve.G1Jac
	for i := range points {
		sum.AddMixed(&points[i])
	}
	return sum
}

// chunkScratch is one worker's reusable curve.BatchAddMixed scratch for
// batches of at most genChunk additions, the i-th addend going to the
// i-th accumulator.
type chunkScratch struct {
	adds            []curve.G1Affine
	idx             []int32
	denoms, scratch []ff.Fp
}

// addInto sets acc[i] += adds[i] for every i, sharing one inversion.
func (s *chunkScratch) addInto(acc, adds []curve.G1Affine) {
	curve.BatchAddMixed(acc, s.idx[:len(acc)], adds, s.denoms, s.scratch)
}

// forChunks covers [0, n) with ranges of at most genChunk, spread over
// procs goroutines, and hands each call its worker's scratch. The chunk
// bound keeps the scratch (≈ 200 KB a worker) independent of n.
func forChunks(n, procs int, fn func(from, to int, s *chunkScratch)) {
	nChunks := (n + genChunk - 1) / genChunk
	size := min(n, genChunk)
	par.Range(nChunks, procs, func(lo, hi int) {
		s := &chunkScratch{
			adds:    make([]curve.G1Affine, size),
			idx:     make([]int32, size),
			denoms:  make([]ff.Fp, size),
			scratch: make([]ff.Fp, size),
		}
		for i := range s.idx {
			s.idx[i] = int32(i)
		}
		for c := lo; c < hi; c++ {
			fn(c*genChunk, min((c+1)*genChunk, n), s)
		}
	})
}
