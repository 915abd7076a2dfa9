// Package bench is the micro-benchmark harness of this repository: a
// structured suite of kernel-level and end-to-end prover benchmarks and
// the runner that measures them. `go test -bench` (through RunB) and
// `cmd/zkbench` run the same closures; zkbench prints each record and
// checks within-run speed gates. Comparing two commits is not this
// package's job: the repository benchmark (internal/benchmark, driven by
// BENCHMARK.json) does that over paired, alternating runs.
package bench

// Record kinds.
const (
	KindKernel  = "kernel"  // one prover kernel in isolation (MSM, sumcheck, …)
	KindE2E     = "e2e"     // a full Engine.Prove invocation
	KindService = "service" // a prove driven through zkproverd's HTTP path
)

// Record is one benchmark's measured result.
type Record struct {
	Name   string
	Kind   string
	Params map[string]string
	Reps   int
	Stats  Stats
	// RawNS holds the individual post-warmup samples.
	RawNS []int64
	// StepsNS decomposes an e2e proof into per-protocol-step shares
	// (mean ns across reps), the software analogue of the paper's
	// Table 1 / Fig. 12 kernel breakdown. Kernel records leave it empty.
	StepsNS map[string]int64
}

// Stats summarizes the post-warmup samples of one benchmark.
type Stats struct {
	MeanNS   int64
	MedianNS int64
	P95NS    int64
	StddevNS int64
	MinNS    int64
	MaxNS    int64
}
