// Command benchmark is the repository's yardstick: four workloads taken
// from a cold start through set-up, proving and verification (one of them
// through the proving service), each in its own process, each checking
// its own outputs, with a traced phase that replays every layer of the
// prover on the workload's shape. README.md in this directory describes
// the metrics, the workloads and how to read the output.
//
//	go run ./internal/benchmark -seed 1 -out DIR      # the full set
//	go run ./internal/benchmark -compare a.json b.json
//	go run ./internal/benchmark -workload many-mu12 -seed 3 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// resultSet is the file a full set of runs leaves behind and -compare
// reads.
type resultSet struct {
	GitSHA    string      `json:"git_sha"`
	GoVersion string      `json:"go_version"`
	NProc     int         `json:"nproc"`
	P         int         `json:"p"`
	Seed      int64       `json:"seed"`
	Seconds   float64     `json:"seconds"`
	Repeat    int         `json:"repeat"`
	Smoke     bool        `json:"smoke,omitempty"`
	WallS     float64     `json:"wall_s"`
	Runs      []runResult `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print its result line (default: run all four, each in a child process)")
		seed    = flag.Int64("seed", 1, "seed of every generated input and of the set-up entropy")
		seconds = flag.Float64("seconds", 15, "length of the timed proving phase of a run")
		trace   = flag.Int("trace", 1, "with -workload: 0 reports the end-to-end metrics, 1 adds the traced phase and reports the per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "out"), "directory for result and span files and for the service's write-ahead log")
		smoke   = flag.Bool("smoke", false, "tiny problem sizes and counts: checks the benchmark, measures nothing")
		repeat  = flag.Int("repeat", 1, "full set only: runs of every workload, on seeds seed, seed+1, ...; medians and quartile spreads are reported")
		compare = flag.Bool("compare", false, "compare two result files given as arguments: baseline, then candidate")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare baseline.json candidate.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal("%v", err)
	}
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal("unknown workload %q", *name)
		}
		os.Exit(runChild(runConfig{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke, Dir: *out}))
	}
	os.Exit(runSet(*seed, *seconds, *repeat, *smoke, *out))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func resultPath(dir, workload string) string {
	return filepath.Join(dir, "result-"+workload+".json")
}

// runChild runs one workload in this process, prints every metric by name
// with its unit, writes the result file, and ends standard output with the
// result line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func runChild(rc runConfig) int {
	res, err := runWorkload(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", rc.Workload.Name, err)
		return 1
	}
	printRun(res, rc)
	data, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(resultPath(rc.Dir, res.Workload), data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	metrics := res.EndToEnd
	if rc.Trace {
		metrics = res.PerLayer
	}
	line, _ := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Ops, "failed": res.Failed, "metrics": metrics,
	})
	fmt.Println(string(line))
	if res.Failed != 0 {
		return 1
	}
	return 0
}

func printRun(res *runResult, rc runConfig) {
	fmt.Printf("== %s: seed %d, mu %d, P %d (GOMAXPROCS), %g s timed ==\n", res.Workload, res.Seed, res.Mu, res.P, rc.Seconds)
	for _, d := range endToEnd {
		note := ""
		switch d.Name {
		case "prove_ms_p50":
			note = fmt.Sprintf("  (%d samples)", res.ProveSamples)
		case "verify_ms_p50":
			note = fmt.Sprintf("  (%d samples)", res.VerifySamples)
		}
		fmt.Printf("  %-36s %14.4f %s%s\n", d.Name, res.EndToEnd[d.Name].Value, d.Unit, note)
	}
	for _, lm := range perLayer {
		if mv, ok := res.PerLayer[lm.Name]; ok {
			note := ""
			if lm.Name == "engine.prove_ms_hi" {
				note = fmt.Sprintf("  (p%g)", res.HiPercentile)
			}
			fmt.Printf("  %-36s %14.4f %s%s\n", lm.Name, mv.Value, lm.Unit, note)
		}
	}
	for _, w := range res.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
	fmt.Printf("  ops %d, failed %d, wall %.1f s\n", res.Ops, res.Failed, res.WallS)
}

// runSet runs every workload repeat times, each run in a child process of
// its own so that the resident-set high-water mark is that run's alone,
// and writes result.json.
func runSet(seed int64, seconds float64, repeat int, smoke bool, dir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	start := time.Now()
	set := resultSet{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), P: parallelism(),
		Seed: seed, Seconds: seconds, Repeat: repeat, Smoke: smoke,
	}
	fmt.Printf("zkspeed benchmark: git %s, %s, nproc %d, P %d, seed %d, %d run(s) per workload\n",
		set.GitSHA, set.GoVersion, set.NProc, set.P, seed, repeat)
	status := 0
	for _, w := range workloads {
		for r := 0; r < repeat; r++ {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "1", "-out", dir,
			}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				status = 1
			}
			var res runResult
			data, err := os.ReadFile(resultPath(dir, w.Name))
			if err == nil {
				err = json.Unmarshal(data, &res)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: no result: %v\n", w.Name, err)
				status = 1
				continue
			}
			os.Remove(resultPath(dir, w.Name))
			set.Runs = append(set.Runs, res)
		}
	}
	set.WallS = time.Since(start).Seconds()
	printSummary(&set)
	data, err := json.MarshalIndent(&set, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Printf("full set in %.0f s; results and trace-<workload>.json in %s\n", set.WallS, dir)
	return status
}

// values collects one end-to-end metric of one workload over the runs.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload == workload {
			out = append(out, r.EndToEnd[metric].Value)
		}
	}
	return out
}

func printSummary(set *resultSet) {
	fmt.Printf("\n%-16s", "median")
	for _, d := range endToEnd {
		fmt.Printf(" %16s", d.Name+" "+d.Unit)
	}
	fmt.Println()
	for _, w := range workloads {
		fmt.Printf("%-16s", w.Name)
		for _, d := range endToEnd {
			fmt.Printf(" %16.3f", median(set.values(w.Name, d.Name)))
		}
		fmt.Println()
		if set.Repeat < 2 {
			continue
		}
		fmt.Printf("%-16s", "  spread/bound")
		for _, d := range endToEnd {
			fmt.Printf(" %16s", fmt.Sprintf("%.3f/%.3f", quartileSpread(set.values(w.Name, d.Name)), d.Bound))
		}
		fmt.Println()
	}
	failed := 0
	for _, r := range set.Runs {
		failed += r.Failed
	}
	fmt.Printf("failed operations: %d\n", failed)
}

// gitSHA is the commit the binary was built from, when the build was
// stamped with one.
func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
