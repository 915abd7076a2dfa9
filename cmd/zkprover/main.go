// Command zkprover runs the functional HyperPlonk prover and verifier end
// to end on a synthetic workload (§6.2-style), prints per-step timings —
// the software analogue of the paper's CPU baseline measurements — and
// couples the measured proof with the zkSpeed accelerator model's
// predicted latency for the same problem size.
//
// Usage:
//
//	zkprover -mu 10            # prove a 2^10-gate circuit and verify it
//	zkprover -mu 12 -seed 7 -skip-verify
//	zkprover -mu 12 -batch 4   # prove 4 circuits on one cached SRS
//	zkprover -mu 10 -timeout 5s
//	zkprover -mu 10 -json      # machine-readable output (proof included)
//
// With -json the command prints a single JSON document on stdout — proof
// bytes (ZKSP wire format, base64), per-step timings, stats and the
// hardware estimate — for scripting against the zkproverd service tooling.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"zkspeed"
)

// jsonProof is one proof in the -json report.
type jsonProof struct {
	Job          int              `json:"job,omitempty"`
	ProofBytes   int              `json:"proof_bytes"`
	Proof        []byte           `json:"proof"` // ZKSP wire bytes (base64 in JSON)
	PublicInputs [][]byte         `json:"public_inputs,omitempty"`
	ProverNS     int64            `json:"prover_ns"`
	StepsNS      map[string]int64 `json:"steps_ns,omitempty"`
	SetupCached  bool             `json:"setup_cached"`
	Verified     *bool            `json:"verified,omitempty"`
}

// jsonReport is the -json output document.
type jsonReport struct {
	Mu   int   `json:"mu"`
	Seed int64 `json:"seed"`
	// CircuitDigest is the hex handle the zkproverd service would use for
	// this circuit (register once, then prove by digest). Batch mode
	// leaves it empty — each job has its own circuit.
	CircuitDigest string      `json:"circuit_digest,omitempty"`
	NumGates      int         `json:"num_gates"`
	Batch         int         `json:"batch"`
	WorkloadNS    int64       `json:"workload_ns"` // circuit and witness generation
	DigestNS      int64       `json:"digest_ns"`   // eng.CircuitDigest over every circuit
	SetupNS       int64       `json:"setup_ns,omitempty"`
	SRSSetups     int         `json:"srs_setups"`
	KeySetups     int         `json:"key_setups"`
	Proofs        []jsonProof `json:"proofs"`
	Estimate      *jsonEst    `json:"estimate,omitempty"`
	TotalNS       int64       `json:"total_ns"`
	VerifiedNS    int64       `json:"verify_ns,omitempty"`
	// PeakRSSMB is the process's resident-set high-water mark (VmHWM) at
	// exit, or where /proc is missing the memory the Go runtime obtained
	// from the system — the repository benchmark's peak_rss_mb rule.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// jsonEst is the accelerator-model coupling in the -json report.
type jsonEst struct {
	PredictedMS       float64 `json:"predicted_ms"`
	MeasuredMS        float64 `json:"measured_ms"`
	CPUBaselineMS     float64 `json:"cpu_baseline_ms"`
	SpeedupVsCPU      float64 `json:"speedup_vs_cpu"`
	SpeedupVsMeasured float64 `json:"speedup_vs_measured"`
}

// checkMu rejects a -mu outside the sizes the prover supports.
func checkMu(mu int) error {
	if mu < 2 || mu > zkspeed.MaxMu {
		return fmt.Errorf("mu=%d out of the supported functional range [2,%d]", mu, zkspeed.MaxMu)
	}
	return nil
}

func main() {
	mu := flag.Int("mu", 10, "log2 of the gate count")
	seed := flag.Int64("seed", 1, "workload generator and setup-entropy seed")
	skipVerify := flag.Bool("skip-verify", false, "skip the (pairing-heavy) verification")
	batch := flag.Int("batch", 1, "number of circuits to prove on one shared SRS")
	workers := flag.Int("workers", 0, "batch worker pool size (0 = one per CPU)")
	timeout := flag.Duration("timeout", 0, "abort proving after this long (0 = no limit)")
	jsonOut := flag.Bool("json", false, "print one machine-readable JSON document instead of text")
	flag.Parse()

	if err := checkMu(*mu); err != nil {
		log.Fatal(err)
	}

	opts := []zkspeed.Option{
		zkspeed.WithEntropy(zkspeed.SeededEntropy(*seed)),
		zkspeed.WithTimings(),
	}
	if *workers > 0 {
		opts = append(opts, zkspeed.WithParallelism(*workers))
	}
	eng := zkspeed.New(opts...)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// say prints progress in text mode and stays quiet under -json, where
	// stdout must carry exactly one JSON document.
	say := func(format string, args ...any) {
		if !*jsonOut {
			fmt.Printf(format, args...)
		}
	}

	report := &jsonReport{Mu: *mu, Seed: *seed, Batch: *batch}
	start := time.Now()
	if *batch > 1 {
		runBatch(ctx, eng, *mu, *seed, *batch, *skipVerify, say, report)
	} else {
		runSingle(ctx, eng, *mu, *seed, *skipVerify, say, report)
	}
	report.TotalNS = time.Since(start).Nanoseconds()
	st := eng.Stats()
	report.SRSSetups = st.SRSSetups
	report.KeySetups = st.KeySetups
	report.PeakRSSMB = peakRSSMB()
	say("peak RSS: %.1f MB\n", report.PeakRSSMB)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatalf("encoding report: %v", err)
		}
	}
}

// peakRSSMB reads the resident-set high-water mark (VmHWM) in MB, falling
// back to the runtime's Sys where /proc is missing (which bounds it from
// above).
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64); err == nil {
					return kb / 1e3
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

func toJSONProof(res *zkspeed.ProofResult, job int) jsonProof {
	blob, err := res.Proof.MarshalBinary()
	if err != nil {
		log.Fatalf("serializing proof: %v", err)
	}
	steps := make(map[string]int64)
	for k, v := range res.StepBreakdown() {
		steps[k] = v.Nanoseconds()
	}
	pub := make([][]byte, len(res.PublicInputs))
	for i := range res.PublicInputs {
		b := res.PublicInputs[i].Bytes()
		pub[i] = b[:]
	}
	return jsonProof{
		Job:          job,
		ProofBytes:   res.Stats.ProofBytes,
		Proof:        blob,
		PublicInputs: pub,
		ProverNS:     res.Stats.ProverTime.Nanoseconds(),
		StepsNS:      steps,
		SetupCached:  res.Stats.SetupCached,
	}
}

func runSingle(ctx context.Context, eng *zkspeed.Engine, mu int, seed int64, skipVerify bool, say func(string, ...any), report *jsonReport) {
	say("building synthetic 2^%d-gate circuit...\n", mu)
	t0 := time.Now()
	circuit, assignment, pub, err := zkspeed.SyntheticWorkloadSeeded(mu, seed)
	if err != nil {
		log.Fatalf("workload: %v", err)
	}
	report.WorkloadNS = time.Since(t0).Nanoseconds()
	report.NumGates = circuit.NumGates()
	t0 = time.Now()
	report.CircuitDigest = fmt.Sprintf("%x", eng.CircuitDigest(circuit))
	report.DigestNS = time.Since(t0).Nanoseconds()
	sayPrelude(say, report)

	say("running universal setup (SRS for mu=%d)...\n", circuit.Mu)
	t0 = time.Now()
	if _, _, err := eng.Setup(ctx, circuit); err != nil {
		log.Fatalf("setup: %v", err)
	}
	report.SetupNS = time.Since(t0).Nanoseconds()
	say("  setup: %v\n", time.Since(t0).Round(time.Millisecond))

	say("proving...\n")
	res, err := eng.Prove(ctx, circuit, assignment)
	if err != nil {
		log.Fatalf("prove: %v", err)
	}
	tm := res.Timings
	say("  step 1  witness commits:       %v\n", tm.WitnessCommit.Round(time.Microsecond))
	say("  step 2  wiring commits (φ, π): %v\n", tm.WireIdentity.Round(time.Microsecond))
	say("  step 3  gate+wire zero-check:  %v\n", tm.ZeroCheck.Round(time.Microsecond))
	say("  step 4  batch evaluations:     %v\n", tm.BatchEvals.Round(time.Microsecond))
	say("  step 5  polynomial opening:    %v\n", tm.PolyOpen.Round(time.Microsecond))
	say("  total prover time:             %v\n", tm.Total.Round(time.Microsecond))
	say("  proof size: %d bytes (%.2f KB)\n", res.Stats.ProofBytes, float64(res.Stats.ProofBytes)/1024)

	jp := toJSONProof(res, 0)
	printEstimate(eng, res.Stats, say, report)

	if !skipVerify {
		say("verifying...\n")
		t0 = time.Now()
		if err := eng.Verify(ctx, circuit, pub, res.Proof); err != nil {
			log.Fatalf("VERIFICATION FAILED: %v", err)
		}
		report.VerifiedNS = time.Since(t0).Nanoseconds()
		ok := true
		jp.Verified = &ok
		say("  proof verified in %v\n", time.Since(t0).Round(time.Millisecond))
	}
	report.Proofs = append(report.Proofs, jp)
}

// sayPrelude prints the time spent before setup: workload and digests.
func sayPrelude(say func(string, ...any), report *jsonReport) {
	say("  workload: %v, circuit digest: %v\n", time.Duration(report.WorkloadNS).Round(time.Millisecond),
		time.Duration(report.DigestNS).Round(time.Millisecond))
}

// runBatch proves `count` distinct circuits of the same size on the
// Engine's worker pool; the universal SRS ceremony runs exactly once.
func runBatch(ctx context.Context, eng *zkspeed.Engine, mu int, seed int64, count int, skipVerify bool, say func(string, ...any), report *jsonReport) {
	say("building %d synthetic 2^%d-gate circuits...\n", count, mu)
	jobs := make([]zkspeed.ProofJob, count)
	t0 := time.Now()
	for i := range jobs {
		circuit, assignment, _, err := zkspeed.SyntheticWorkloadSeeded(mu, seed+int64(i))
		if err != nil {
			log.Fatalf("workload %d: %v", i, err)
		}
		jobs[i] = zkspeed.ProofJob{Circuit: circuit, Assignment: assignment}
	}
	report.WorkloadNS = time.Since(t0).Nanoseconds()
	report.NumGates = jobs[0].Circuit.NumGates()
	// The engine memoizes digests, so hashing here moves their cost out of
	// the batch below, where no field would name it.
	t0 = time.Now()
	for _, j := range jobs {
		eng.CircuitDigest(j.Circuit)
	}
	report.DigestNS = time.Since(t0).Nanoseconds()
	sayPrelude(say, report)
	t0 = time.Now()
	results, err := eng.ProveBatch(ctx, jobs)
	if err != nil {
		log.Fatalf("batch: %v", err)
	}
	for _, r := range results {
		if r.Err != nil {
			log.Fatalf("job %d: %v", r.Job, r.Err)
		}
		say("  job %d: proved in %v (%d-byte proof, cached setup: %v)\n",
			r.Job, r.Result.Stats.ProverTime.Round(time.Microsecond),
			r.Result.Stats.ProofBytes, r.Result.Stats.SetupCached)
		report.Proofs = append(report.Proofs, toJSONProof(r.Result, r.Job))
	}
	st := eng.Stats()
	say("batch of %d done in %v — SRS ceremonies: %d, key setups: %d\n",
		count, time.Since(t0).Round(time.Millisecond), st.SRSSetups, st.KeySetups)
	if !skipVerify {
		say("verifying...\n")
		t0 = time.Now()
		for i, r := range results {
			if err := eng.Verify(ctx, jobs[i].Circuit, r.Result.PublicInputs, r.Result.Proof); err != nil {
				log.Fatalf("job %d: VERIFICATION FAILED: %v", i, err)
			}
			ok := true
			report.Proofs[i].Verified = &ok
		}
		report.VerifiedNS = time.Since(t0).Nanoseconds()
		say("  all %d proofs verified in %v\n", count, time.Since(t0).Round(time.Millisecond))
	}
	printEstimate(eng, results[0].Result.Stats, say, report)
}

// printEstimate couples the measured proof with the accelerator model.
func printEstimate(eng *zkspeed.Engine, stats zkspeed.ProofStats, say func(string, ...any), report *jsonReport) {
	est := eng.Estimate(stats, zkspeed.PaperDesign())
	report.Estimate = &jsonEst{
		PredictedMS:       est.PredictedMS,
		MeasuredMS:        est.MeasuredMS,
		CPUBaselineMS:     est.CPUBaselineMS,
		SpeedupVsCPU:      est.SpeedupVsCPU,
		SpeedupVsMeasured: est.SpeedupVsMeasured,
	}
	say("zkSpeed estimate (paper design, 2^%d gates):\n", stats.Mu)
	say("  predicted accelerator latency: %.3f ms\n", est.PredictedMS)
	say("  measured CPU time:             %.1f ms (%.0f× slower)\n",
		est.MeasuredMS, est.SpeedupVsMeasured)
	say("  paper CPU baseline:            %.0f ms (%.0f× slower)\n",
		est.CPUBaselineMS, est.SpeedupVsCPU)
}
