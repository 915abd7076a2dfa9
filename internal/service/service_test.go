package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"zkspeed/api"
	"zkspeed/internal/curve"
	"zkspeed/internal/ff"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/sumcheck"
)

// buildCircuit compiles x² + c·x == y (y public) — varying c yields
// circuits with distinct digests, varying x yields distinct witnesses for
// the same circuit.
func buildCircuit(t *testing.T, c, x uint64) (*hyperplonk.Circuit, *hyperplonk.Assignment) {
	t.Helper()
	b := hyperplonk.NewBuilder()
	xv := b.Witness(ff.NewFr(x))
	x2 := b.Mul(xv, xv)
	cx := b.MulConst(ff.NewFr(c), xv)
	y := b.Add(x2, cx)
	yPub := b.PublicInput(b.Value(y))
	b.AssertEqual(y, yPub)
	circuit, assign, _, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return circuit, assign
}

// stubProof fabricates a structurally valid (serializable) proof without
// running the prover, so service plumbing tests stay sub-millisecond.
func stubProof(mu int) *hyperplonk.Proof {
	p := &hyperplonk.Proof{}
	inf := curve.G1Infinity()
	for i := range p.WitnessComms {
		p.WitnessComms[i].P = inf
	}
	p.PhiComm.P = inf
	p.PiComm.P = inf
	mk := func(evals int) sumcheck.Proof {
		rounds := make([]sumcheck.RoundPoly, mu)
		for k := range rounds {
			rounds[k].Evals = make([]ff.Fr, evals)
		}
		return sumcheck.Proof{Rounds: rounds}
	}
	p.IdentityCheck = mk(5)
	p.OpenCheck = mk(2)
	p.Opening = pcs.OpeningProof{Quotients: make([]curve.G1Affine, mu)}
	for i := range p.Opening.Quotients {
		p.Opening.Quotients[i] = inf
	}
	return p
}

// stubBackend is a Backend that returns fabricated proofs after an
// optional delay, recording every batch it was handed.
type stubBackend struct {
	delay     time.Duration
	verifyErr error

	mu      sync.Mutex
	batches []int // size of each ProveBatch call
	proofs  int
}

func (b *stubBackend) ProveBatch(ctx context.Context, jobs []BackendJob) []BackendResult {
	if b.delay > 0 {
		select {
		case <-time.After(b.delay):
		case <-ctx.Done():
		}
	}
	b.mu.Lock()
	b.batches = append(b.batches, len(jobs))
	b.proofs += len(jobs)
	b.mu.Unlock()
	out := make([]BackendResult, len(jobs))
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			out[i] = BackendResult{Err: err}
			continue
		}
		out[i] = BackendResult{
			Proof:        stubProof(j.Circuit.Mu),
			PublicInputs: j.Circuit.PublicInputs(j.Assignment),
			ProverTime:   time.Millisecond,
			Steps:        map[string]time.Duration{"witness_commit": time.Millisecond},
		}
	}
	return out
}

func (b *stubBackend) Verify(ctx context.Context, c *hyperplonk.Circuit, pub []ff.Fr, proof *hyperplonk.Proof) error {
	return b.verifyErr
}

func (b *stubBackend) Setup(ctx context.Context, c *hyperplonk.Circuit) error { return nil }

func (b *stubBackend) Scheme() string { return "pst" }

func (b *stubBackend) Stats() BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BackendStats{Proofs: b.proofs, KeySetups: len(b.batches)}
}

func (b *stubBackend) batchSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int{}, b.batches...)
}

func mustRegister(t *testing.T, s *Service, c *hyperplonk.Circuit) *circuitEntry {
	t.Helper()
	entry, err := s.RegisterCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// newTestService starts a one-loop service over the given backend, or
// over a fresh stubBackend when none is given.
func newTestService(t *testing.T, cfg Config, backend ...Backend) *Service {
	t.Helper()
	if len(backend) == 0 {
		return newLoopService(t, cfg, &stubBackend{}, 1)
	}
	return newLoopService(t, cfg, backend[0], 1)
}

// newLoopService starts a service with the given number of batch loops.
func newLoopService(t *testing.T, cfg Config, b Backend, loops int) *Service {
	t.Helper()
	s, err := New(cfg, b, loops)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestQueuePriorityOrderAndBackpressure(t *testing.T) {
	q := newJobQueue(3)
	push := func(id string, prio int) error {
		return q.Push(&job{id: id, priority: prio, done: make(chan struct{})})
	}
	if err := push("low", prioLow); err != nil {
		t.Fatal(err)
	}
	if err := push("high", prioHigh); err != nil {
		t.Fatal(err)
	}
	if err := push("normal", prioNormal); err != nil {
		t.Fatal(err)
	}
	if err := push("reject", prioHigh); !errors.Is(err, errQueueFull) {
		t.Fatalf("push into full queue: %v", err)
	}
	// The drain estimate Submit attaches to the rejection never drops
	// below the one-second floor, so Retry-After is always actionable.
	if ra := newMetrics().retryAfter(3, 1); ra < time.Second {
		t.Fatalf("Retry-After %v below floor", ra)
	}
	want := []string{"high", "normal", "low"}
	for _, w := range want {
		j, err := q.Pop(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if j.id != w {
			t.Fatalf("popped %s, want %s", j.id, w)
		}
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("depth %d after draining", d)
	}
}

func TestQueuePopMatching(t *testing.T) {
	q := newJobQueue(8)
	dA, dB := [32]byte{1}, [32]byte{2}
	for i, d := range [][32]byte{dB, dA, dB, dA} {
		if err := q.Push(&job{id: string(rune('a' + i)), digest: d, priority: prioNormal, done: make(chan struct{})}); err != nil {
			t.Fatal(err)
		}
	}
	if j := q.PopMatching(dA); j == nil || j.id != "b" {
		t.Fatalf("PopMatching(A) = %v, want job b", j)
	}
	if j := q.PopMatching(dA); j == nil || j.id != "d" {
		t.Fatalf("second PopMatching(A) wrong")
	}
	if j := q.PopMatching(dA); j != nil {
		t.Fatalf("PopMatching(A) on drained digest returned %s", j.id)
	}
	if d := q.Depth(); d != 2 {
		t.Fatalf("depth %d, want the 2 B jobs", d)
	}
}

func TestProofCacheLRU(t *testing.T) {
	c := newProofCache(2)
	k := func(b byte) cacheKey { return cacheKey{circuit: [32]byte{b}} }
	c.Put(k(1), &cacheEntry{})
	c.Put(k(2), &cacheEntry{})
	if c.Get(k(1)) == nil { // refresh 1; 2 becomes LRU
		t.Fatal("lost entry 1")
	}
	c.Put(k(3), &cacheEntry{})
	if c.Get(k(2)) != nil {
		t.Fatal("entry 2 should have been evicted")
	}
	if c.Get(k(1)) == nil || c.Get(k(3)) == nil {
		t.Fatal("entries 1 and 3 should survive")
	}
	disabled := newProofCache(0)
	disabled.Put(k(9), &cacheEntry{})
	if disabled.Get(k(9)) != nil {
		t.Fatal("disabled cache stored an entry")
	}
}

func TestBatchWindowCoalescesSameCircuit(t *testing.T) {
	stub := &stubBackend{}
	s := newTestService(t, Config{BatchWindow: 300 * time.Millisecond, MaxBatch: 8}, stub)

	circuit, a1 := buildCircuit(t, 3, 7)
	_, a2 := buildCircuit(t, 3, 8)
	_, a3 := buildCircuit(t, 3, 9)
	other, oa := buildCircuit(t, 5, 7)
	entry := mustRegister(t, s, circuit)
	otherEntry := mustRegister(t, s, other)
	if entry.digest == otherEntry.digest {
		t.Fatal("fixture circuits share a digest")
	}

	var jobs []*job
	for _, a := range []*hyperplonk.Assignment{a1, a2, a3} {
		j, err := s.Submit(nil, entry, a, prioNormal, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	oj, err := s.Submit(nil, otherEntry, oa, prioNormal, nil)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, oj)
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished", j.id)
		}
	}
	for i, j := range jobs[:3] {
		resp := j.response()
		if resp.Status != api.StatusDone {
			t.Fatalf("job %d: %+v", i, resp)
		}
		if resp.BatchSize != 3 {
			t.Fatalf("job %d proved in batch of %d, want 3", i, resp.BatchSize)
		}
	}
	if resp := oj.response(); resp.BatchSize != 1 {
		t.Fatalf("other-circuit job batch size %d, want 1", resp.BatchSize)
	}
	sizes := stub.batchSizes()
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 1 {
		t.Fatalf("backend saw batches %v, want [3 1]", sizes)
	}
	snap := s.Metrics().Snapshot()
	if snap.Batches != 2 || snap.BatchJobs != 4 || snap.JobsDone != 4 {
		t.Fatalf("metrics %+v", snap)
	}
}

func TestBatchDeduplicatesIdenticalJobs(t *testing.T) {
	stub := &stubBackend{}
	s := newTestService(t, Config{BatchWindow: 300 * time.Millisecond, MaxBatch: 8}, stub)
	circuit, a1 := buildCircuit(t, 3, 7)
	_, a2 := buildCircuit(t, 3, 8)
	entry := mustRegister(t, s, circuit)

	// Two byte-identical statements plus one distinct witness, all inside
	// one batch window: the backend must prove only the 2 unique ones.
	var jobs []*job
	for _, a := range []*hyperplonk.Assignment{a1, a1, a2} {
		j, err := s.Submit(nil, entry, a, prioNormal, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished", j.id)
		}
	}
	for i, j := range jobs {
		if resp := j.response(); resp.Status != api.StatusDone {
			t.Fatalf("job %d: %+v", i, resp)
		}
	}
	if r0, r1 := jobs[0].response(), jobs[1].response(); string(r0.Proof) != string(r1.Proof) {
		t.Fatal("identical jobs did not share one proof")
	}
	if sizes := stub.batchSizes(); len(sizes) != 1 || sizes[0] != 2 {
		t.Fatalf("backend saw batches %v, want [2] (duplicates deduplicated)", sizes)
	}
	snap := s.Metrics().Snapshot()
	if snap.JobsDone != 3 || snap.ProveCount != 2 {
		t.Fatalf("metrics %+v: want 3 jobs done over 2 real proofs", snap)
	}
}

func TestProofCacheServesRepeatRequest(t *testing.T) {
	stub := &stubBackend{}
	s := newTestService(t, Config{BatchWindow: time.Millisecond}, stub)
	circuit, assign := buildCircuit(t, 3, 7)
	entry := mustRegister(t, s, circuit)

	ctx := context.Background()
	first, err := s.SubmitWait(ctx, entry, assign, prioNormal)
	if err != nil || first.Status != api.StatusDone {
		t.Fatalf("first prove: %v %+v", err, first)
	}
	if first.Cached {
		t.Fatal("first prove reported cached")
	}
	second, err := s.SubmitWait(ctx, entry, assign, prioNormal)
	if err != nil || second.Status != api.StatusDone {
		t.Fatalf("second prove: %v %+v", err, second)
	}
	if !second.Cached {
		t.Fatal("identical request was re-proved")
	}
	if string(second.Proof) != string(first.Proof) {
		t.Fatal("cache returned different proof bytes")
	}
	if got := stub.Stats().Proofs; got != 1 {
		t.Fatalf("backend proved %d times, want 1", got)
	}
	if snap := s.Metrics().Snapshot(); snap.CacheHits != 1 {
		t.Fatalf("cache hits %d, want 1", snap.CacheHits)
	}
	// A different witness for the same circuit must miss.
	_, a2 := buildCircuit(t, 3, 8)
	third, err := s.SubmitWait(ctx, entry, a2, prioNormal)
	if err != nil || third.Cached {
		t.Fatalf("different witness served from cache: %v %+v", err, third)
	}
}

func TestSubmitRejectsWitnessSizeMismatch(t *testing.T) {
	s := newTestService(t, Config{})
	small, _ := buildCircuit(t, 3, 7)
	bigger := hyperplonk.NewBuilder()
	vars := make([]hyperplonk.Variable, 40)
	for i := range vars {
		vars[i] = bigger.Witness(ff.NewFr(uint64(i)))
	}
	acc := vars[0]
	for _, v := range vars[1:] {
		acc = bigger.Add(acc, v)
	}
	_ = bigger.PublicInput(bigger.Value(acc))
	bigCircuit, bigAssign, _, err := bigger.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if bigCircuit.NumGates() == small.NumGates() {
		t.Skip("fixtures compiled to the same size")
	}
	entry := mustRegister(t, s, small)
	if _, err := s.Submit(nil, entry, bigAssign, prioNormal, nil); !errors.Is(err, errWitnessSize) {
		t.Fatalf("mismatched witness accepted: %v", err)
	}
}

func TestShutdownFailsQueuedJobs(t *testing.T) {
	stub := &stubBackend{delay: 2 * time.Second}
	s := newTestService(t, Config{BatchWindow: time.Millisecond, QueueCapacity: 8}, stub)
	circuit, assign := buildCircuit(t, 3, 7)
	entry := mustRegister(t, s, circuit)
	j, err := s.Submit(nil, entry, assign, prioNormal, nil)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the loop pick it up
	s.Close()
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
		t.Fatal("job not failed on shutdown")
	}
	if resp := j.response(); resp.Status != api.StatusFailed {
		t.Fatalf("job after shutdown: %+v", resp)
	}
}
