package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"zkspeed"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload workload
	Seed     int64
	// Seconds is how long the timed proving phase lasts. Each phase also
	// has a minimum operation count, so 0 runs just those.
	Seconds float64
	// Trace adds the traced phase and the per-layer metrics.
	Trace bool
	// Smoke shrinks the problem sizes and counts so the whole run takes a
	// moment; it checks the benchmark, it measures nothing.
	Smoke bool
	// Dir receives the span file and holds the service's write-ahead log.
	Dir string
}

func (rc runConfig) mu() int {
	if rc.Smoke {
		return rc.Workload.SmokeMu
	}
	return rc.Workload.Mu
}

// minCalls is the least number of proving calls (proofs, ProveBatch rounds,
// blocks of served requests) of a timed phase, whatever its time budget.
const minCalls = 3

// verifiesPerCall is how many verifications follow each proving call
// (at least one per statement). Verification is one thread of pairings, and
// on a shared box single-threaded speed comes in bursts of two levels some
// 20% apart: ten samples in one block let the median flip between them;
// thirty and more spread over the proving phase do not.
const verifiesPerCall = 3

// reps is the number of calls behind every per-layer median.
func (rc runConfig) reps() int {
	if rc.Smoke {
		return 3
	}
	return 5
}

// setup_s is the median over fresh instances: one where a set-up costs
// oneShotSetup or more (the μ=16 ceremony would otherwise eat the run's
// whole time budget), else at least minSetups, and more of a cheap one
// until steadySetup has been measured in all or maxSetups are done.
const (
	oneShotSetup = 5 * time.Second
	minSetups    = 3
	maxSetups    = 25
	steadySetup  = 2 * time.Second
)

// moreSetups reports whether another fresh instance is to be set up after
// those whose durations, in nanoseconds, are given.
func moreSetups(done []float64) bool {
	if len(done) == 0 {
		return true
	}
	if done[0] >= float64(oneShotSetup) || len(done) >= maxSetups {
		return false
	}
	var total float64
	for _, ns := range done {
		total += ns
	}
	return len(done) < minSetups || total < float64(steadySetup)
}

func (rc runConfig) budget() time.Duration {
	return time.Duration(rc.Seconds * float64(time.Second))
}

// engineOptions are the options every Engine and service of the run is
// built with: the defaults a user gets, plus seeded set-up entropy so
// proofs repeat byte for byte. Fixed-base tables stay off, as they are
// for a default user.
func (rc runConfig) engineOptions() []zkspeed.Option {
	opts := []zkspeed.Option{zkspeed.WithEntropy(zkspeed.SeededEntropy(rc.Seed))}
	if rc.Workload.Scheme != "" {
		opts = append(opts, zkspeed.WithPCSScheme(rc.Workload.Scheme))
	}
	return opts
}

// meter counts operations and correctness failures of one run.
type meter struct {
	ops, failed int
	// first maps a statement to the digest of its first proof; every
	// later proof of the statement must repeat it.
	first map[string]string
}

func (m *meter) fail(format string, args ...any) {
	m.failed++
	fmt.Fprintf(os.Stderr, "FAILED: "+format+"\n", args...)
}

// sameProof records the proof digest of the statement, or checks it
// against the one recorded before. It reports whether this was the first.
func (m *meter) sameProof(key, digest string) bool {
	want, seen := m.first[key]
	if !seen {
		m.first[key] = digest
		return true
	}
	if want != digest {
		m.fail("proof of %s is not byte-identical to the first one", key)
	}
	return false
}

// timed is what the untraced phases of a run measured.
type timed struct {
	proveMS         []float64
	proveP50        float64 // prove_ms_p50: the median of proveMS; served, the quartile block's median
	verifyMS        []float64
	proofsPerS      float64
	proofBytes      int
	peakRSSMB       float64
	allocMBPerProof float64
	serve           *serveStats // nil unless the workload serves
}

// runResult is everything one run reports.
type runResult struct {
	Workload      string                 `json:"workload"`
	Why           string                 `json:"why"`
	Seed          int64                  `json:"seed"`
	Mu            int                    `json:"mu"`
	P             int                    `json:"p"`
	WallS         float64                `json:"wall_s"`
	Ops           int                    `json:"ops"`
	Failed        int                    `json:"failed"`
	ProveSamples  int                    `json:"prove_samples"`
	VerifySamples int                    `json:"verify_samples"`
	HiPercentile  float64                `json:"prove_ms_hi_percentile,omitempty"`
	Digests       []string               `json:"digests"`
	EndToEnd      map[string]metricValue `json:"end_to_end"`
	PerLayer      map[string]metricValue `json:"per_layer,omitempty"`
	Warnings      []string               `json:"warnings,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parallelism is P: pinned as GOMAXPROCS, and the number of clients of the
// burst a traced service run sends.
func parallelism() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runWorkload runs one workload in this process: warm-up, cold set-up,
// the timed phase with its correctness gate, and with rc.Trace the traced
// phase. It pins GOMAXPROCS for its duration.
func runWorkload(rc runConfig) (*runResult, error) {
	start := time.Now()
	p := parallelism()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	ctx := context.Background()
	t := newTracer()
	m := &meter{first: make(map[string]string)}
	res := &runResult{Workload: rc.Workload.Name, Why: rc.Workload.Why, Seed: rc.Seed, Mu: rc.mu(), P: p}

	if err := warmUp(ctx, rc); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	var (
		tm   *timed
		eng  *zkspeed.Engine // nil when the workload serves
		stmt statement       // the statement the traced phase replays
		err  error
	)
	if rc.Workload.Serve {
		tm, stmt, err = runServed(ctx, rc, t, m, res)
	} else {
		tm, eng, stmt, err = runEngine(ctx, rc, t, m, res)
	}
	if err != nil {
		return nil, err
	}
	res.ProveSamples, res.VerifySamples = len(tm.proveMS), len(tm.verifyMS)
	res.EndToEnd = map[string]metricValue{}
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = metricValue{Unit: d.Unit}
	}
	set := func(name string, v float64) {
		mv := res.EndToEnd[name]
		mv.Value = v
		res.EndToEnd[name] = mv
	}
	// The fresh instances so far; the traced phase may set up another.
	set("setup_s", median(t.perOp("setup"))/1e9)
	set("prove_ms_p50", tm.proveP50)
	set("proofs_per_s", tm.proofsPerS)
	set("verify_ms_p50", median(tm.verifyMS))
	set("proof_bytes", float64(tm.proofBytes))
	set("peak_rss_mb", tm.peakRSSMB)

	if rc.Trace {
		vals, err := tracedPhase(ctx, rc, t, m, eng, stmt, tm, res)
		if err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
		res.PerLayer = map[string]metricValue{}
		for _, lm := range perLayer {
			res.PerLayer[lm.Name] = metricValue{Value: vals[lm.Name], Unit: lm.Unit}
		}
		if rc.Dir != "" {
			path := fmt.Sprintf("%s/trace-%s.json", rc.Dir, rc.Workload.Name)
			if err := t.write(path, rc.Workload.Name, rc.Seed); err != nil {
				return nil, err
			}
		}
	}
	res.Ops, res.Failed = m.ops, m.failed
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// warmUp runs an untimed μ=8 set-up, proof and verification on a throwaway
// Engine: the first ceremony of a fresh process runs up to 40% slow (page
// faults, CPU feature dispatch, scheduler ramp-up), and that must not land
// in setup_s.
func warmUp(ctx context.Context, rc runConfig) error {
	mu := 8
	if rc.Smoke {
		mu = 4
	}
	c, a, pub, err := zkspeed.SyntheticWorkloadSeeded(mu, rc.Seed)
	if err != nil {
		return err
	}
	eng := zkspeed.New(rc.engineOptions()...)
	res, err := eng.Prove(ctx, c, a)
	if err != nil {
		return err
	}
	return eng.Verify(ctx, c, pub, res.Proof)
}

// setupEngine builds a fresh Engine and takes it from cold to ready to
// prove every statement: the SRS ceremony, then each circuit's key
// preprocessing. The two are separate spans under one "setup" span.
func setupEngine(ctx context.Context, rc runConfig, t *tracer, stmts []statement) (*zkspeed.Engine, error) {
	eng := zkspeed.New(rc.engineOptions()...)
	id := fmt.Sprintf("setup-%d", len(t.perOp("setup")))
	root := t.begin("setup", id, 0)
	var err error
	t.call("pcs.setup", id, root, 1, func() { err = eng.WarmSRS(ctx, rc.mu()) })
	t.call("engine.setup", id, root, len(stmts), func() {
		for _, s := range stmts {
			if err == nil {
				_, _, err = eng.Setup(ctx, s.circuit)
			}
		}
	})
	t.end(root)
	return eng, err
}

// runEngine is the untraced part of the three proving workloads.
func runEngine(ctx context.Context, rc runConfig, t *tracer, m *meter, res *runResult) (*timed, *zkspeed.Engine, statement, error) {
	w := rc.Workload
	stmts, err := syntheticStatements(rc.mu(), w.Circuits, rc.Seed)
	if err != nil {
		return nil, nil, statement{}, err
	}
	for _, s := range stmts {
		res.Digests = append(res.Digests, "circuit:"+digestHex(s.circuit.Digest()))
	}
	tm := &timed{}

	// Cold set-up, on fresh Engines; the last one does the proving.
	var eng *zkspeed.Engine
	for moreSetups(t.perOp("setup")) {
		if eng, err = setupEngine(ctx, rc, t, stmts); err != nil {
			return nil, nil, statement{}, fmt.Errorf("set-up: %w", err)
		}
	}

	// Timed proving. Every proof is hashed and the first of each statement
	// kept; after every call a few of those are verified, off the proving
	// clock, so that the verification samples span the whole phase and a
	// burst of noise on the box cannot own them all.
	firsts := make([]*zkspeed.Proof, len(stmts))
	check := func(i int, r *zkspeed.ProofResult, err error) {
		m.ops++
		if err != nil {
			m.fail("prove statement %d: %v", i, err)
			return
		}
		digest, size, err := proofDigest(r.Proof)
		if err != nil {
			m.fail("encode proof of statement %d: %v", i, err)
			return
		}
		if m.sameProof(fmt.Sprintf("statement %d", i), digest) {
			firsts[i] = r.Proof
			tm.proofBytes = size
			res.Digests = append(res.Digests, "proof:"+digest)
		}
	}
	verify := func() {
		for k := 0; k < max(verifiesPerCall, len(stmts)); k++ {
			i := k % len(stmts)
			if firsts[i] == nil {
				continue // not proved yet, or its proving failure is already counted
			}
			m.ops++
			verifyStart := time.Now()
			err := eng.Verify(ctx, stmts[i].circuit, stmts[i].public, firsts[i])
			tm.verifyMS = append(tm.verifyMS, time.Since(verifyStart).Seconds()*1e3)
			if err != nil {
				m.fail("proof of statement %d does not verify: %v", i, err)
			}
		}
	}
	jobs := make([]zkspeed.ProofJob, w.BatchJobs)
	for j := range jobs {
		s := stmts[j%len(stmts)]
		jobs[j] = zkspeed.ProofJob{Circuit: s.circuit, Assignment: s.assignment}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var (
		proving time.Duration // the proving clock
		proofs  int
		rates   []float64 // proofs per second of each ProveBatch round
	)
	for calls := 0; calls < minCalls || proving < rc.budget(); calls++ {
		callStart := time.Now()
		if len(jobs) > 0 {
			out, err := eng.ProveBatch(ctx, jobs)
			took := time.Since(callStart)
			if err != nil {
				return nil, nil, statement{}, fmt.Errorf("ProveBatch: %w", err)
			}
			proving += took
			rates = append(rates, float64(len(jobs))/took.Seconds())
			for j, o := range out {
				check(j%len(stmts), o.Result, o.Err)
				if o.Err == nil {
					tm.proveMS = append(tm.proveMS, o.Result.Stats.ProverTime.Seconds()*1e3)
				}
			}
			proofs += len(jobs)
		} else {
			i := calls % len(stmts)
			r, err := eng.Prove(ctx, stmts[i].circuit, stmts[i].assignment)
			took := time.Since(callStart)
			proving += took
			tm.proveMS = append(tm.proveMS, took.Seconds()*1e3)
			check(i, r, err)
			proofs++
		}
		verify()
	}
	runtime.ReadMemStats(&after)
	tm.proveP50 = median(tm.proveMS)
	tm.allocMBPerProof = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(proofs)
	tm.proofsPerS = float64(proofs) / proving.Seconds()
	if len(rates) > 0 {
		// The median round, so one disturbed round does not set the rate.
		tm.proofsPerS = median(rates)
	}

	// One tampered proof must be rejected.
	if firsts[0] != nil {
		m.ops++
		bad, err := tampered(firsts[0])
		if err != nil {
			return nil, nil, statement{}, err
		}
		if eng.Verify(ctx, stmts[0].circuit, stmts[0].public, bad) == nil {
			m.fail("a proof with a flipped evaluation was accepted")
		}
	}
	tm.peakRSSMB = peakRSSMB()
	return tm, eng, stmts[0], nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// Where /proc is missing it falls back to the memory the Go runtime has
// obtained from the system, which bounds it from above.
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

// tracedPhase produces the per-layer metrics. (a) A second Engine built
// WithTimings proves the statement alongside the untraced one, which gives
// the five protocol-step spans and the tracing overhead. (b) The layer
// replay calls each layer below the prover on inputs of the statement's
// shape. (c) The engine, wire-format, store and model probes.
func tracedPhase(ctx context.Context, rc runConfig, t *tracer, m *meter, eng *zkspeed.Engine, s statement, tm *timed, res *runResult) (map[string]float64, error) {
	one := []statement{s}
	var err error
	if eng == nil { // a served workload has no Engine of its own yet
		if eng, err = setupEngine(ctx, rc, t, one); err != nil {
			return nil, err
		}
	}
	// The traced Engine reuses the ceremony where the scheme can hand it
	// over (PST); otherwise it runs its own.
	opts := []zkspeed.Option{zkspeed.WithTimings()}
	if srs, err := eng.SRSFor(ctx, rc.mu()); err == nil {
		opts = append(opts, zkspeed.WithSRS(srs))
	}
	traced := zkspeed.New(append(rc.engineOptions(), opts...)...)
	if _, _, err := traced.Setup(ctx, s.circuit); err != nil {
		return nil, err
	}
	key := "traced statement"
	var proof *zkspeed.Proof
	for r := 0; r < rc.reps(); r++ {
		for _, e := range []struct {
			name string
			eng  *zkspeed.Engine
		}{{"engine.prove_untraced", eng}, {"engine.prove_traced", traced}} {
			id := fmt.Sprintf("%s-%d", e.name, r)
			began := time.Now()
			pr, err := e.eng.Prove(ctx, s.circuit, s.assignment)
			took := time.Since(began)
			m.ops++
			if err != nil {
				return nil, err
			}
			root := t.add(e.name, id, 0, began, took)
			// The steps run back to back from the start of the proof.
			at := began
			for _, step := range []string{"witness_commit", "gate_identity", "wire_identity", "batch_evals", "poly_open"} {
				if d, ok := pr.StepBreakdown()[step]; ok {
					t.add("hyperplonk.step."+step, id, root, at, d)
					at = at.Add(d)
				}
			}
			digest, _, err := proofDigest(pr.Proof)
			if err != nil {
				return nil, err
			}
			m.sameProof(key, digest)
			proof = pr.Proof
		}
	}

	pk, _, err := eng.Setup(ctx, s.circuit)
	if err != nil {
		return nil, err
	}
	denseFrac, err := replayLayers(t, pk, s.assignment, rc.Seed, rc.reps())
	if err != nil {
		return nil, err
	}

	const codecOps = 64
	blob, err := proof.MarshalBinary()
	if err != nil {
		return nil, err
	}
	for r := 0; r < rc.reps() && err == nil; r++ {
		t.call("engine.key_cache_hit", "engine", 0, 1, func() { _, _, err = eng.Setup(ctx, s.circuit) })
		t.call("engine.circuit_digest", "engine", 0, 1, func() { s.circuit.Digest() })
		t.call("hyperplonk.proof_encode", "codec", 0, codecOps, func() {
			for i := 0; i < codecOps && err == nil; i++ {
				_, err = proof.MarshalBinary()
			}
		})
		t.call("hyperplonk.proof_decode", "codec", 0, codecOps, func() {
			for i := 0; i < codecOps && err == nil; i++ {
				err = new(zkspeed.Proof).UnmarshalBinary(blob)
			}
		})
	}
	if err != nil {
		return nil, err
	}
	witness, err := s.assignment.MarshalBinary()
	if err != nil {
		return nil, err
	}
	walDir, err := os.MkdirTemp(rc.Dir, "wal-replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	if err := replayStore(t, walDir, witness, blob, rc.reps()); err != nil {
		return nil, err
	}

	v := map[string]float64{}
	for _, lm := range perLayer {
		if lm.Span != "" {
			v[lm.Name] = median(t.perOp(lm.Span)) * perNanosecond[lm.Unit]
		}
	}
	loneMS := nsToMS(median(t.perOp("engine.prove_untraced")))
	v["msm.sparse_dense_frac"] = denseFrac
	v["pcs.commit_overhead_ms"] = v["pcs.commit_dense_ms"] - v["msm.dense_ms"]
	v["hyperplonk.trace_overhead"] = nsToMS(median(t.perOp("engine.prove_traced"))) / loneMS
	// Calls per proof, from prover.go: 3 sparse and 2 dense commitments,
	// the three sumchecks, one fraction and one product table, 22
	// evaluations, 6 eq tables, 7 linear combinations, one opening.
	v["hyperplonk.replay_cover"] = (3*v["pcs.commit_sparse_ms"] + 2*v["pcs.commit_dense_ms"] +
		v["sumcheck.zero_ms"] + v["sumcheck.perm_ms"] + v["sumcheck.open_ms"] +
		v["poly.fraction_ms"] + v["poly.product_ms"] + 22*v["poly.evaluate_ms"] +
		6*v["poly.eq_table_ms"] + 7*v["poly.lincomb_ms"] + v["pcs.open_ms"]) / loneMS
	v["engine.alloc_mb_per_proof"] = tm.allocMBPerProof
	// How many lone proofs' worth of latency the timed phase delivered per
	// unit of time: 1 for a sequential loop, the gain of filling the cores
	// with concurrent proofs (and of cached answers) otherwise.
	v["engine.batch_speedup"] = tm.proofsPerS * loneMS / 1e3
	v["engine.prove_ms_hi"], res.HiPercentile = highestPercentile(tm.proveMS)
	v["sim.predicted_ms"] = zkspeed.Simulate(zkspeed.PaperDesign(), rc.mu()).Milliseconds()
	if sv := tm.serve; sv != nil {
		sv.metrics(v)
	}

	if c := v["hyperplonk.replay_cover"]; c < 0.8 || c > 1.25 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("hyperplonk.replay_cover = %.2f: the layer replay does not explain a lone proof (0.80-1.25 expected)", c))
	}
	if o := v["hyperplonk.trace_overhead"]; o > 1.05 {
		res.Warnings = append(res.Warnings, fmt.Sprintf("hyperplonk.trace_overhead = %.3f: step timing costs more than 5%%", o))
	}
	return v, nil
}

func nsToMS(ns float64) float64 { return ns / 1e6 }
