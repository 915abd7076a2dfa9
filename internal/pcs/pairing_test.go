package pcs

import (
	"fmt"
	"testing"
)

// TestSplitPairs checks that every fixed pair lands in exactly one loop,
// that no loop is empty or beyond the budget, and that a budget of one
// goroutine, or a check with no fixed pair, runs one loop.
func TestSplitPairs(t *testing.T) {
	for fixed := 0; fixed <= 23; fixed++ {
		for _, points := range []int{1, 14, 30, 40} {
			for procs := -1; procs <= 9; procs++ {
				shares := splitPairs(fixed, points, procs)
				name := fmt.Sprintf("fixed %d points %d procs %d: %v", fixed, points, procs, shares)
				if len(shares) < 1 || len(shares) > max(procs, 1) {
					t.Fatalf("%s: %d loops", name, len(shares))
				}
				sum := 0
				for i, n := range shares {
					if n < 0 || (i > 0 && n == 0) {
						t.Fatalf("%s: loop %d gets %d pairs", name, i, n)
					}
					sum += n
				}
				if sum != fixed {
					t.Fatalf("%s: dealt %d pairs, want %d", name, sum, fixed)
				}
				if (procs <= 1 || fixed == 0) && len(shares) != 1 {
					t.Fatalf("%s: split without a second goroutine's worth of work", name)
				}
			}
		}
	}
	// The hyperplonk check at μ = 16 on two goroutines: the caller takes
	// the MSM's pair and (μ−6)/2 fixed pairs, the other loop the rest.
	if got := splitPairs(16, 13+1+16, 2); len(got) != 2 || got[0] != 5 || got[1] != 11 {
		t.Fatalf("μ=16, 2 goroutines: shares %v, want [5 11]", got)
	}
}
