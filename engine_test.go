package zkspeed_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"zkspeed"
)

// smallCircuit compiles the quickstart relation x²+3x+5 == y with the
// given witness — a minimal, fast circuit for Engine tests.
func smallCircuit(t *testing.T, x uint64) (*zkspeed.Circuit, *zkspeed.Assignment, []zkspeed.Scalar) {
	return smallCircuitConst(t, x, 5)
}

// smallCircuitConst is smallCircuit with the relation's constant exposed:
// the constant lands in the qC selector, so different constants compile to
// circuits with different digests but identical shape and size.
func smallCircuitConst(t *testing.T, x, k uint64) (*zkspeed.Circuit, *zkspeed.Assignment, []zkspeed.Scalar) {
	t.Helper()
	b := zkspeed.NewBuilder()
	xv := b.Witness(zkspeed.NewScalar(x))
	x2 := b.Mul(xv, xv)
	threeX := b.MulConst(zkspeed.NewScalar(3), xv)
	y := b.AddConst(b.Add(x2, threeX), zkspeed.NewScalar(k))
	yPub := b.PublicInput(b.Value(y))
	b.AssertEqual(y, yPub)
	circuit, assignment, pub, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return circuit, assignment, pub
}

// TestEngineGoldenPath: prove and verify through the Engine, with timings
// and a coupled hardware estimate.
func TestEngineGoldenPath(t *testing.T) {
	eng := zkspeed.New(
		zkspeed.WithEntropy(zkspeed.SeededEntropy(1)),
		zkspeed.WithTimings(),
	)
	circuit, assignment, pub := smallCircuit(t, 11)
	ctx := context.Background()

	res, err := eng.Prove(ctx, circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings == nil || res.Timings.Total <= 0 {
		t.Fatal("WithTimings engine returned no step timings")
	}
	if res.Stats.Mu != circuit.Mu || res.Stats.ProofBytes != res.Proof.ProofSizeBytes() {
		t.Fatalf("proof stats inconsistent: %+v", res.Stats)
	}
	if len(res.PublicInputs) != len(pub) || !res.PublicInputs[0].Equal(&pub[0]) {
		t.Fatal("result public inputs do not match compiled public inputs")
	}
	if err := eng.Verify(ctx, circuit, pub, res.Proof); err != nil {
		t.Fatalf("verification failed: %v", err)
	}
	// Forged public input must fail.
	bad := append([]zkspeed.Scalar(nil), pub...)
	bad[0] = zkspeed.NewScalar(1)
	if err := eng.Verify(ctx, circuit, bad, res.Proof); err == nil {
		t.Fatal("forged public input accepted")
	}

	// The coupled estimate must report a positive predicted latency and a
	// measured-vs-predicted speedup consistent with its own fields.
	est := eng.Estimate(res.Stats, zkspeed.PaperDesign())
	if est.PredictedMS <= 0 || est.CPUBaselineMS <= 0 {
		t.Fatalf("degenerate estimate: %+v", est)
	}
	if est.MeasuredMS <= 0 || est.SpeedupVsMeasured <= 0 {
		t.Fatalf("estimate lost the measured prover time: %+v", est)
	}
	want := est.MeasuredMS / est.PredictedMS
	if diff := est.SpeedupVsMeasured - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("speedup %v inconsistent with %v/%v", est.SpeedupVsMeasured, est.MeasuredMS, est.PredictedMS)
	}
}

// TestEngineTimingsDefaultOff: without WithTimings the per-step breakdown
// is not collected.
func TestEngineTimingsDefaultOff(t *testing.T) {
	eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(2)))
	circuit, assignment, _ := smallCircuit(t, 4)
	res, err := eng.Prove(context.Background(), circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings != nil {
		t.Fatal("timings collected without WithTimings")
	}
	if res.Stats.ProverTime <= 0 {
		t.Fatal("coarse prover time must be measured regardless of WithTimings")
	}
}

// TestEngineSRSAndKeyCache: the second proof of the same circuit reuses
// both the SRS and the preprocessed keys; a different circuit of the same
// size reuses the SRS but pays its own key setup.
func TestEngineSRSAndKeyCache(t *testing.T) {
	eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(3)))
	circuit, assignment, _ := smallCircuit(t, 11)
	ctx := context.Background()

	if _, err := eng.Prove(ctx, circuit, assignment); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.SRSSetups != 1 || st.KeySetups != 1 {
		t.Fatalf("first proof: want 1 SRS setup and 1 key setup, got %+v", st)
	}

	res2, err := eng.Prove(ctx, circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.SRSSetups != 1 || st.KeySetups != 1 {
		t.Fatalf("second proof of same circuit re-ran setup: %+v", st)
	}
	if st.KeyCacheHits == 0 || !res2.Stats.SetupCached {
		t.Fatalf("second proof did not hit the key cache: %+v", st)
	}

	// A different relation of the same size: new keys, same SRS.
	circuit2, assignment2, _ := smallCircuitConst(t, 11, 6)
	if circuit2.Mu != circuit.Mu {
		t.Fatalf("test circuits must share a size: mu %d vs %d", circuit2.Mu, circuit.Mu)
	}
	if bytes.Equal(digestOf(circuit), digestOf(circuit2)) {
		t.Fatal("structurally different circuits share a digest")
	}
	if _, err := eng.Prove(ctx, circuit2, assignment2); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.SRSSetups != 1 {
		t.Fatalf("same-size circuit re-ran the SRS ceremony: %+v", st)
	}
	if st.KeySetups != 2 {
		t.Fatalf("distinct circuit should need its own key setup: %+v", st)
	}
}

func digestOf(c *zkspeed.Circuit) []byte {
	d := c.Digest()
	return d[:]
}

// TestEngineProveBatch: 4 jobs on a cached SRS run setup exactly once and
// all proofs verify (the acceptance criterion for batching).
func TestEngineProveBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("batch proofs are slow")
	}
	eng := zkspeed.New(
		zkspeed.WithEntropy(zkspeed.SeededEntropy(5)),
		zkspeed.WithParallelism(4),
	)
	ctx := context.Background()

	// Two distinct circuits of the same size, two jobs each: one SRS
	// ceremony, two key setups, two key-cache hits.
	jobs := make([]zkspeed.ProofJob, 0, 4)
	pubs := make([][]zkspeed.Scalar, 0, 4)
	circuits := make([]*zkspeed.Circuit, 0, 4)
	for _, seed := range []int64{100, 101} {
		circuit, assignment, pub, err := zkspeed.SyntheticWorkloadSeeded(6, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			jobs = append(jobs, zkspeed.ProofJob{Circuit: circuit, Assignment: assignment})
			pubs = append(pubs, pub)
			circuits = append(circuits, circuit)
		}
	}

	results, err := eng.ProveBatch(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Job != i {
			t.Fatalf("result %d reports job %d", i, r.Job)
		}
		if err := eng.Verify(ctx, circuits[i], pubs[i], r.Result.Proof); err != nil {
			t.Fatalf("job %d proof rejected: %v", i, err)
		}
	}
	st := eng.Stats()
	if st.SRSSetups != 1 {
		t.Fatalf("batch of 4 same-size jobs must run the SRS ceremony exactly once, got %d", st.SRSSetups)
	}
	if st.KeySetups != 2 {
		t.Fatalf("two distinct circuits need exactly two key setups, got %d", st.KeySetups)
	}
	if st.Proofs != 4 {
		t.Fatalf("want 4 proofs, got %d", st.Proofs)
	}
}

// TestEngineContextCancellation: cancelling mid-proof at mu=12 aborts the
// prover within one protocol step and surfaces ctx.Err().
func TestEngineContextCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("mu=12 setup is slow")
	}
	eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(6)))
	circuit, assignment, _, err := zkspeed.SyntheticWorkloadSeeded(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Pay for setup up front so the cancellation window covers only the
	// protocol-step loop.
	if _, _, err := eng.Setup(context.Background(), circuit); err != nil {
		t.Fatal(err)
	}

	// Measure a full proof first: it is the machine-calibrated baseline
	// that makes the abort-latency assertion robust under -race et al.
	full, err := eng.Prove(context.Background(), circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	fullTime := full.Stats.ProverTime

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel mid-flight, early in the step sequence.
	timer := time.AfterFunc(fullTime/8, cancel)
	defer timer.Stop()

	start := time.Now()
	res, err := eng.Prove(ctx, circuit, assignment)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got result=%v err=%v", res, err)
	}
	// Aborting within one protocol step must return well before a full
	// proof would have (the longest single step is under half the total).
	if elapsed >= fullTime {
		t.Fatalf("cancellation took %v of a %v proof — prover did not abort early", elapsed, fullTime)
	}

	// An already-cancelled context must fail before any step runs.
	done, cancelNow := context.WithCancel(context.Background())
	cancelNow()
	if _, err := eng.Prove(done, circuit, assignment); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: want context.Canceled, got %v", err)
	}

	// On a cold engine a cancelled context must also skip the (expensive,
	// seconds-long at mu=12) SRS ceremony and key preprocessing.
	cold := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(9)))
	start = time.Now()
	if _, err := cold.Prove(done, circuit, assignment); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold engine, pre-cancelled context: want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("cold cancelled Prove took %v — it paid for setup", d)
	}
}

// TestEngineBatchCancellation: a cancelled context marks undispatched jobs
// with ctx.Err() and returns it.
func TestEngineBatchCancellation(t *testing.T) {
	eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(7)))
	circuit, assignment, _ := smallCircuit(t, 3)
	jobs := make([]zkspeed.ProofJob, 4)
	for i := range jobs {
		jobs[i] = zkspeed.ProofJob{Circuit: circuit, Assignment: assignment}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := eng.ProveBatch(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: want context.Canceled, got %v", i, r.Err)
		}
	}
}

// TestEngineEntropyDeterminism: engines with the same seeded entropy
// produce byte-identical proofs; different seeds produce different SRSs
// and therefore different proofs.
func TestEngineEntropyDeterminism(t *testing.T) {
	circuit, assignment, _ := smallCircuit(t, 9)
	ctx := context.Background()

	prove := func(seed int64) []byte {
		eng := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(seed)))
		res, err := eng.Prove(ctx, circuit, assignment)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Proof.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := prove(42), prove(42), prove(43)
	if !bytes.Equal(a, b) {
		t.Fatal("same entropy seed produced different proofs")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different entropy seeds produced identical proofs")
	}
}

// TestEngineSRSPreload: WithSRS shares one ceremony across engines.
func TestEngineSRSPreload(t *testing.T) {
	circuit, assignment, pub := smallCircuit(t, 11)
	ctx := context.Background()

	eng1 := zkspeed.New(zkspeed.WithEntropy(zkspeed.SeededEntropy(8)))
	srs, err := eng1.SRSFor(ctx, circuit.Mu)
	if err != nil {
		t.Fatal(err)
	}

	eng2 := zkspeed.New(zkspeed.WithSRS(srs))
	res, err := eng2.Prove(ctx, circuit, assignment)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng2.Stats(); st.SRSSetups != 0 {
		t.Fatalf("preloaded engine ran its own ceremony: %+v", st)
	}
	// Proofs under the shared SRS verify on the originating engine too.
	if err := eng1.Verify(ctx, circuit, pub, res.Proof); err != nil {
		t.Fatalf("cross-engine verification failed: %v", err)
	}
}
