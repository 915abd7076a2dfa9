// Command zkbench runs the repository's micro-suite: the records CI's
// -assert-faster gates compare, each fast path beside the retained
// reference or the slower shape it is held against. Kernel records (field
// multiplication, Miller loops, MSMs, sumcheck rounds, commitments) call
// zkspeed/internal/... directly (suite.go); the end-to-end, service and
// fair-share records go through the public zkspeed API (e2e.go). It
// prints each record's median and p95. A gate compares two records of
// the same run, which is how CI holds each fast path to its margin on
// whatever hardware it runs. Comparing two commits is the repository
// benchmark's job (go run ./internal/benchmark -compare over paired
// runs); per-layer times are its --trace 1 metrics, per-step shares
// zkprover -json.
//
// Usage:
//
//	go run ./internal/zkbench                        # every record
//	go run ./internal/zkbench -run 'sumcheck/round' \
//	  -assert-faster 'sumcheck/round/mu12/parallel*1.3<sumcheck/round/mu12/serial'
//	go run ./internal/zkbench -run 'msm/' -list      # show the MSM records and exit
//
// Exit codes: 0 success, 1 a gate failed, 2 usage or runtime error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// warmup discards one iteration per record: it absorbs one-time costs
// (page faults, lazily derived SRS state) the steady state should not
// include. defaultReps is the number of measured iterations per record:
// the most that keeps CI's gated run under 8 s on a 2-vCPU box (median
// 7.8 s over 22 runs; one more rep of every record costs about 0.65 s),
// so that a gate's median rides out a few samples a neighbour slowed.
const (
	warmup      = 1
	defaultReps = 12
)

func main() {
	reps := flag.Int("reps", 0, "measured repetitions per benchmark (0 = suite default)")
	seed := flag.Int64("seed", 1, "seed for all deterministic benchmark inputs")
	runFilter := flag.String("run", "", "only run benchmarks whose name matches this regexp")
	list := flag.Bool("list", false, "list the selected benchmark names and exit")
	var asserts assertList
	flag.Var(&asserts, "assert-faster",
		"within-run speed assertion 'A<B' or 'A*1.4<B' on benchmark medians (repeatable); "+
			"exits 1 unless median(A)·factor < median(B) — how CI proves the fast MSM path beats the retained pippenger baseline on the same runner")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("zkbench: ")

	filter, err := regexp.Compile(*runFilter)
	if err != nil {
		log.Printf("bad -run regexp: %v", err)
		os.Exit(2)
	}
	var groups [][]benchmark
	n := 0
	for _, g := range suite(gateSizes, *seed) {
		var kept []benchmark
		for _, bm := range g {
			if filter.MatchString(bm.Name) {
				kept = append(kept, bm)
			}
		}
		if len(kept) > 0 {
			groups = append(groups, kept)
			n += len(kept)
		}
	}
	if *list {
		for _, g := range groups {
			for _, bm := range g {
				fmt.Println(bm.Name)
			}
		}
		return
	}
	if n == 0 {
		log.Print("no benchmarks selected")
		os.Exit(2)
	}

	r := runner{Warmup: warmup, Reps: defaultReps, Log: log.Printf}
	if *reps > 0 {
		r.Reps = *reps
	}
	log.Printf("running %d benchmarks (warmup %d, reps %d, GOMAXPROCS %d)",
		n, r.Warmup, r.Reps, runtime.GOMAXPROCS(0))
	recs, err := r.runAll(groups)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	failed := false
	for _, a := range asserts {
		if err := a.check(recs); err != nil {
			log.Printf("FAIL assertion %s: %v", a, err)
			failed = true
		} else {
			log.Printf("ok: assertion %s holds", a)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// fasterAssertion is one parsed -assert-faster flag: median(left)·factor
// must be strictly below median(right) within the fresh run.
type fasterAssertion struct {
	left, right string
	factor      float64
}

func (a fasterAssertion) String() string {
	if a.factor != 1 {
		return fmt.Sprintf("%s*%g<%s", a.left, a.factor, a.right)
	}
	return fmt.Sprintf("%s<%s", a.left, a.right)
}

func (a fasterAssertion) check(recs []record) error {
	find := func(name string) (int64, error) {
		for _, rec := range recs {
			if rec.Name == name {
				return int64(rec.Median), nil
			}
		}
		return 0, fmt.Errorf("benchmark %q not in this run", name)
	}
	l, err := find(a.left)
	if err != nil {
		return err
	}
	rr, err := find(a.right)
	if err != nil {
		return err
	}
	scaled := float64(l) * a.factor
	if scaled >= float64(rr) {
		return fmt.Errorf("median(%s)=%dns ×%g = %.0fns is not below median(%s)=%dns",
			a.left, l, a.factor, scaled, a.right, rr)
	}
	return nil
}

// assertList collects repeated -assert-faster flags.
type assertList []fasterAssertion

func (c *assertList) String() string {
	parts := make([]string, len(*c))
	for i, a := range *c {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

func (c *assertList) Set(v string) error {
	lr := strings.SplitN(v, "<", 2)
	if len(lr) != 2 || lr[0] == "" || lr[1] == "" {
		return fmt.Errorf("bad -assert-faster %q: want 'A<B' or 'A*1.4<B'", v)
	}
	a := fasterAssertion{left: lr[0], right: lr[1], factor: 1}
	if i := strings.LastIndex(lr[0], "*"); i >= 0 {
		f, err := strconv.ParseFloat(lr[0][i+1:], 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("bad -assert-faster factor in %q", v)
		}
		a.left, a.factor = lr[0][:i], f
	}
	*c = append(*c, a)
	return nil
}
