package pcs

import (
	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/msm"
	"zkspeed/internal/par"
)

// Both backends end a verification in the same check,
//
//	e(Σ_i scalars[i]·pts[i], H) · Π_k e(fixed[k], Q_k) == 1,
//
// where H and every Q_k are fixed SRS elements and only the first pair's
// G1 input waits on an MSM: PST's fixed pairs are (−Q_k, [τ_{k+1}]H), the
// Zeromorph one is (−π, [τ]H). Their G1 inputs come straight from the
// proof, so their Miller loops can start at once, beside the MSM, on the
// rest of the verifier's goroutine budget. Each loop returns its own
// Miller value; the product of those is exactly the value of one loop over
// every pair (squaring distributes over the product), so one final
// exponentiation finishes the check whatever the split.

// Verifier costs, in eighths of one pair's Miller-loop lines (68 sparse
// Fp12 multiplications, ≈ 0.19 ms): a Miller loop's 63 Fp12 squarings cost
// about one pair of its own, and the Window-4 MSM about one pair plus an
// eighth per point. Lower quartiles of 41–61 runs on a 2-vCPU Xeon, Go 1.24:
// PreparedMillerLoop 0.34 ms for 1 pair, 3.37 ms for 17; the MSM 0.22 ms
// at 2 points, 0.49 ms at 13 and 0.89 ms at 30.
const (
	costPair     = 8
	costLoop     = 8
	costMSMBase  = 8
	costMSMPoint = 1
)

// splitPairs deals the fixed pairs of a check with an MSM of points
// points over at most procs Miller loops. shares[0] is the number of
// fixed pairs the calling goroutine takes on after the MSM and its own
// pair; every further entry is one loop started beside it. The split is
// the cheapest by the cost model above; a split that is no cheaper than
// fewer loops is not taken, so a budget of one, or a check whose fixed
// pairs fit under nothing, runs one loop on the caller.
func splitPairs(fixed, points, procs int) []int {
	caller := func(a int) int { return costMSMBase + points*costMSMPoint + costLoop + (a+1)*costPair }
	best, bestK, bestA := caller(fixed), 1, fixed
	for k := 2; k <= procs && k-1 <= fixed; k++ {
		for a := 0; a <= fixed-(k-1); a++ {
			per := (fixed - a + k - 2) / (k - 1) // pairs of the largest other loop
			if wall := max(caller(a), costLoop+per*costPair); wall < best {
				best, bestK, bestA = wall, k, a
			}
		}
	}
	shares := make([]int, bestK)
	shares[0] = bestA
	rest, loops := fixed-bestA, bestK-1
	for i := 1; i < bestK; i++ {
		shares[i] = rest / loops
		if i <= rest%loops {
			shares[i]++
		}
	}
	return shares
}

// pairingCheck runs the check above. lines[0] holds H's Miller-loop
// lines and lines[k+1] those of Q_k. The loops of splitPairs(len(fixed),
// len(pts), procs) run side by side, one share each: loop 0 computes the
// MSM, then the loop of its pair and its share.
func pairingCheck(pts []curve.G1Affine, scalars []ff.Fr, fixed []curve.G1Affine, lines []curve.G2Prepared, procs int) (bool, error) {
	shares := splitPairs(len(fixed), len(pts), procs)
	fs := make([]ff.Fp12, len(shares))
	errs := make([]error, len(shares))
	// One share a chunk.
	par.Range(len(shares), len(shares), func(k, _ int) {
		if k == 0 {
			sum := msm.MSMWithOptions(pts, scalars, msm.Options{Window: 4})
			ps := make([]curve.G1Affine, 1+shares[0])
			ps[0].FromJacobian(&sum)
			copy(ps[1:], fixed[:shares[0]])
			fs[0], errs[0] = curve.PreparedMillerLoop(ps, lines[:len(ps)])
			return
		}
		lo := 0
		for _, n := range shares[:k] {
			lo += n
		}
		hi := lo + shares[k]
		fs[k], errs[k] = curve.PreparedMillerLoop(fixed[lo:hi], lines[lo+1:hi+1])
	})
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	f := fs[0]
	for k := 1; k < len(fs); k++ {
		f.Mul(&f, &fs[k])
	}
	out := curve.FinalExponentiation(&f)
	return out.IsOne(), nil
}
