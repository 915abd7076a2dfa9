// Command zkbench runs the repository's structured benchmark suite —
// kernel-level (Pippenger and Sparse MSM across window widths and both
// aggregation schedules, sumcheck round loop, PCS commit/open, MLE fold),
// end-to-end Engine.Prove, and service-level (proofs driven through
// zkproverd's HTTP path against a loopback server, plus the cached
// overhead floor) — and prints each record's median and p95, plus the
// per-step shares of records that decompose into protocol steps.
// -assert-faster gates compare two records of the same run, which is how
// CI holds each fast path to its margin over the retained reference on
// whatever hardware it runs. Comparing two commits is the repository
// benchmark's job (go run ./internal/benchmark -compare over paired runs).
//
// It lives under internal/ so that one package holds the whole suite: the
// kernel records call zkspeed/internal/... directly (suite.go), the
// end-to-end, service and durability records go through the public
// zkspeed API (e2e.go).
//
// Usage:
//
//	go run ./internal/zkbench -quick                 # CI-sized suite
//	go run ./internal/zkbench -quick -run 'sumcheck/round' \
//	  -assert-faster 'sumcheck/round/mu12/parallel*1.3<sumcheck/round/mu12/serial'
//	go run ./internal/zkbench -e2e-mu 12,14,16,18 -reps 5   # full paper-range sweep (minutes per size)
//	go run ./internal/zkbench -run 'msm/' -list      # show the MSM benchmarks and exit
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

	"zkspeed"
)

func main() {
	quick := flag.Bool("quick", false, "run the CI-sized suite (small sizes, few reps)")
	reps := flag.Int("reps", 0, "measured repetitions per benchmark (0 = suite default)")
	warmup := flag.Int("warmup", -1, "discarded warmup iterations per benchmark (-1 = suite default)")
	seed := flag.Int64("seed", 1, "seed for all deterministic benchmark inputs")
	e2eMu := flag.String("e2e-mu", "", "comma-separated end-to-end problem sizes, e.g. 12,14,16 (empty = suite default)")
	runFilter := flag.String("run", "", "only run benchmarks whose name matches this regexp")
	list := flag.Bool("list", false, "list the selected benchmark names and exit")
	var asserts assertList
	flag.Var(&asserts, "assert-faster",
		"within-run speed assertion 'A<B' or 'A*1.4<B' on benchmark medians (repeatable); "+
			"exits 1 unless median(A)·factor < median(B) — how CI proves the fast MSM path beats the retained pippenger baseline on the same runner")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("zkbench: ")

	cfg := defaultConfig(*quick)
	cfg.Seed = *seed
	if *reps > 0 {
		cfg.Reps = *reps
	}
	if *warmup >= 0 {
		cfg.Warmup = *warmup
	}
	if *e2eMu != "" {
		mus, err := parseMuList(*e2eMu)
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		cfg.E2EMus = mus
	}

	benchmarks := suite(cfg)
	var filter *regexp.Regexp
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			log.Printf("bad -run regexp: %v", err)
			os.Exit(2)
		}
		filter = re
		var kept []benchmark
		for _, bm := range benchmarks {
			if re.MatchString(bm.Name) {
				kept = append(kept, bm)
			}
		}
		benchmarks = kept
	}
	if *list {
		listAll(filter, cfg.Seed)
		return
	}
	if len(benchmarks) == 0 {
		log.Print("no benchmarks selected")
		os.Exit(2)
	}

	r := runner{
		Warmup: cfg.Warmup,
		Reps:   cfg.Reps,
		Log:    log.Printf,
	}
	log.Printf("running %d benchmarks (warmup %d, reps %d, GOMAXPROCS %d)",
		len(benchmarks), cfg.Warmup, cfg.Reps, runtime.GOMAXPROCS(0))
	recs, err := r.runAll(benchmarks)
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

// listAll prints every registered benchmark name across both suite
// shapes, tagged with the suites that contain it — so -assert-faster
// expressions can be authored without reading suite.go. An optional -run regexp narrows the listing.
func listAll(filter *regexp.Regexp, seed int64) {
	type entry struct {
		name  string
		quick bool
		full  bool
	}
	var order []string
	index := map[string]*entry{}
	collect := func(quick bool) {
		cfg := defaultConfig(quick)
		cfg.Seed = seed
		for _, bm := range suite(cfg) {
			e, ok := index[bm.Name]
			if !ok {
				e = &entry{name: bm.Name}
				index[bm.Name] = e
				order = append(order, bm.Name)
			}
			if quick {
				e.quick = true
			} else {
				e.full = true
			}
		}
	}
	collect(true)
	collect(false)
	for _, name := range order {
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		e := index[name]
		tags := ""
		switch {
		case e.quick && e.full:
			tags = "[quick full]"
		case e.quick:
			tags = "[quick]"
		default:
			tags = "[full]"
		}
		fmt.Printf("%-44s %s\n", name, tags)
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

// parseMuList parses "12,14,16" into problem sizes, bounds-checked to the
// functional prover's supported range.
func parseMuList(s string) ([]int, error) {
	var mus []int
	for _, f := range strings.Split(s, ",") {
		mu, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -e2e-mu entry %q: %v", f, err)
		}
		if mu < 2 || mu > zkspeed.MaxMu {
			return nil, fmt.Errorf("-e2e-mu %d out of the supported functional range [2,%d]", mu, zkspeed.MaxMu)
		}
		mus = append(mus, mu)
	}
	return mus, nil
}
