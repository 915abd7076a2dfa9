package msm

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
)

// msmsJob builds one job of n points for TestMSMsMatchNaive: a scalar
// shape that routes it (sparse, narrow, full-width or all equal) and, in
// some jobs, points repeated or paired with their negatives, so buckets
// double and cancel.
func msmsJob(rng *rand.Rand, n int) (Job, string) {
	pts := randPoints(rng, n)
	shape := []string{"zeros-and-ones", "narrow", "full", "all-equal"}[rng.Intn(4)]
	scalars := make([]ff.Fr, n)
	x := randFr(rng)
	for i := range scalars {
		switch shape {
		case "zeros-and-ones":
			switch r := rng.Intn(10); {
			case r < 4:
			case r < 9:
				scalars[i].SetOne()
			default:
				scalars[i] = randFr(rng)
			}
		case "narrow":
			scalars[i].SetBigInt(new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(1+rng.Intn(ff.GLVBits)))))
		case "full":
			scalars[i] = randFr(rng)
		case "all-equal":
			scalars[i] = x
		}
	}
	if n > 1 {
		switch rng.Intn(3) {
		case 0: // P and −P
			for i := 1; i < n; i += 2 {
				pts[i].Neg(&pts[i-1])
			}
			shape += "/±P"
		case 1: // repeated points
			for i := 1; i < n; i += 2 {
				pts[i] = pts[0]
			}
			shape += "/repeated"
		}
	}
	return Job{pts, scalars}, shape
}

// TestMSMsMatchNaive is the property test of the one-schedule path: job
// lists of 0 to 12 jobs, each of 0 to 2^10 points, with every route
// mixed in one call, P/−P pairs and repeated points, on 1 to 3
// goroutines and under a forced window — every output equals Naive on
// its own job.
func TestMSMsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	sizes := []int{0, 1, 2, 3, 7, 15, 31, 64, 127, 256, 511, 1 << 10}
	cases := 10
	if testing.Short() {
		cases = 4
	}
	for c := 0; c < cases; c++ {
		nJobs := rng.Intn(13)
		if c == 0 {
			nJobs = 0
		}
		jobs := make([]Job, nJobs)
		want := make([]curve.G1Jac, nJobs)
		var desc []string
		budget := 1 << 11 // Naive is slow: bound the points of a case
		for k := range jobs {
			n := sizes[rng.Intn(len(sizes))]
			for n > budget {
				n /= 2
			}
			budget -= n
			var shape string
			jobs[k], shape = msmsJob(rng, n)
			want[k] = Naive(jobs[k].Points, jobs[k].Scalars)
			desc = append(desc, fmt.Sprintf("%d:%s", n, shape))
		}
		for _, opt := range []Options{
			{Procs: 1},
			{Parallel: true, Procs: 2},
			{Parallel: true, Procs: 3},
			{Parallel: true, Procs: 2, Window: 5},
		} {
			got := MSMs(jobs, opt)
			if len(got) != nJobs {
				t.Fatalf("case %d: %d results for %d jobs", c, len(got), nJobs)
			}
			for k := range jobs {
				if !got[k].Equal(&want[k]) {
					t.Fatalf("case %d %+v: job %d of %v differs from Naive", c, opt, k, desc)
				}
			}
		}
	}
}

// TestSchedule: every (plan, window, effective point) is accumulated by
// exactly one piece; a plan of ≥ minWindowTaskBuckets buckets is cut
// into one-piece window tasks as scheduleWindows lays them out; and the
// block tasks' update counts differ by at most one block, with no more
// tasks than goroutines.
func TestSchedule(t *testing.T) {
	narrow := func(n, c, nw int) plan {
		return plan{lo: make([]curve.G1Affine, n), c: c, nw: nw}
	}
	for _, tc := range []struct {
		name  string
		plans []plan
		procs int
	}{
		{"one point", []plan{narrow(2, 3, 43)}, 2},
		{"opening chain mu10", chainPlans(10), 2},
		{"opening chain mu16", chainPlans(16), 3},
		{"wide only", []plan{narrow(1<<12, 13, 10), narrow(1<<13, 13, 10)}, 2},
		{"serial", chainPlans(12), 1},
		{"many procs", chainPlans(8), 16},
	} {
		pieces, ends := schedule(tc.plans, tc.procs)
		if len(ends) == 0 || ends[len(ends)-1] != len(pieces) {
			t.Fatalf("%s: ends %v do not close %d pieces", tc.name, ends, len(pieces))
		}
		covered := make([][][]int, len(tc.plans))
		for p := range tc.plans {
			covered[p] = make([][]int, tc.plans[p].nw)
			for w := range covered[p] {
				covered[p][w] = make([]int, tc.plans[p].nPts())
			}
		}
		var loads []int
		maxBlock := 0
		for k := range ends {
			lo := 0
			if k > 0 {
				lo = ends[k-1]
			}
			task := pieces[lo:ends[k]]
			if len(task) == 0 {
				t.Fatalf("%s: task %d is empty", tc.name, k)
			}
			wide := tc.plans[task[0].p].buckets() >= minWindowTaskBuckets
			load := 0
			for _, pc := range task {
				pl := &tc.plans[pc.p]
				if (pl.buckets() >= minWindowTaskBuckets) != wide || (wide && len(task) > 1) {
					t.Fatalf("%s: task %d mixes window pieces and blocks: %+v", tc.name, k, task)
				}
				if !wide && (pc.lo != 0 || pc.hi != pl.nPts()) {
					t.Fatalf("%s: block %+v is not a whole window", tc.name, pc)
				}
				for e := pc.lo; e < pc.hi; e++ {
					covered[pc.p][pc.w][e]++
				}
				load += pc.hi - pc.lo
				maxBlock = max(maxBlock, pc.hi-pc.lo)
			}
			if !wide {
				loads = append(loads, load)
			}
		}
		for p := range covered {
			for w := range covered[p] {
				for e, n := range covered[p][w] {
					if n != 1 {
						t.Fatalf("%s: plan %d window %d point %d accumulated %d times", tc.name, p, w, e, n)
					}
				}
			}
		}
		if len(loads) > tc.procs {
			t.Fatalf("%s: %d block tasks for %d goroutines", tc.name, len(loads), tc.procs)
		}
		if len(loads) > 0 {
			lo, hi := loads[0], loads[0]
			for _, l := range loads {
				lo, hi = min(lo, l), max(hi, l)
			}
			if hi-lo > maxBlock {
				t.Fatalf("%s: block task loads %v differ by more than one block (%d)", tc.name, loads, maxBlock)
			}
		}
	}
}

// chainPlans returns the GLV plans of a μ-variable opening chain at the
// default widths: 2^(μ-1), …, 1 points.
func chainPlans(mu int) []plan {
	var out []plan
	for n := 1 << (mu - 1); n >= 1; n /= 2 {
		c := DefaultWindowFast(2 * n)
		out = append(out, plan{lo: make([]curve.G1Affine, n), hi: make([]curve.G1Affine, n),
			c: c, nw: signedWindows(ff.GLVBits, c)})
	}
	return out
}
