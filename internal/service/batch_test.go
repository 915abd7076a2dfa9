package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zkspeed/api"
	"zkspeed/internal/hyperplonk"
)

// witnessesFor builds n distinct witnesses of one circuit.
func witnessesFor(t *testing.T, c uint64, n int) (*hyperplonk.Circuit, []*hyperplonk.Assignment) {
	t.Helper()
	circuit, first := buildCircuit(t, c, 1)
	assigns := []*hyperplonk.Assignment{first}
	for x := uint64(2); len(assigns) < n; x++ {
		_, a := buildCircuit(t, c, x)
		assigns = append(assigns, a)
	}
	return circuit, assigns
}

func TestProveBatchWaitDigestIsOrderSensitive(t *testing.T) {
	s := newTestService(t, Config{BatchWindow: -1})
	circuit, assigns := witnessesFor(t, 22, 2)
	entry := mustRegister(t, s, circuit)

	fwd, err := s.ProveBatchWait(context.Background(), nil, entry, assigns, prioNormal, nil)
	if err != nil {
		t.Fatal(err)
	}
	rev, err := s.ProveBatchWait(context.Background(), nil, entry,
		[]*hyperplonk.Assignment{assigns[1], assigns[0]}, prioNormal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fwd.BatchDigest == "" || rev.BatchDigest == "" {
		t.Fatal("missing digests")
	}
	if fwd.BatchDigest == rev.BatchDigest {
		t.Fatal("batch digest must bind statement order")
	}
}

// failingBackend rejects every statement.
type failingBackend struct{ stubBackend }

func (b *failingBackend) ProveBatch(ctx context.Context, jobs []BackendJob) []BackendResult {
	out := make([]BackendResult, len(jobs))
	for i := range out {
		out[i].Err = errors.New("witness rejected")
	}
	return out
}

func TestProveBatchReportsFailuresWithoutDigest(t *testing.T) {
	s := newTestService(t, Config{BatchWindow: -1}, &failingBackend{})
	circuit, assigns := witnessesFor(t, 23, 3)
	entry := mustRegister(t, s, circuit)

	resp, err := s.ProveBatchWait(context.Background(), nil, entry, assigns, prioNormal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failed != 3 {
		t.Fatalf("Failed = %d, want 3", resp.Failed)
	}
	if resp.BatchDigest != "" {
		t.Fatal("batch digest must be withheld when any statement failed")
	}
}

func TestSubmitBatchRejectsOverCapacityWhole(t *testing.T) {
	// 1 shard x capacity 4, slow backend: a 6-statement batch exceeds total
	// free capacity and must be rejected as a unit with 429 semantics.
	slow := &stubBackend{delay: 50 * time.Millisecond}
	s := newTestService(t, Config{QueueCapacity: 4, BatchWindow: -1}, slow)
	circuit, assigns := witnessesFor(t, 24, 6)
	entry := mustRegister(t, s, circuit)

	_, err := s.SubmitBatch(nil, entry, assigns, prioNormal, nil)
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("got %v, want OverloadedError", err)
	}
}

// gateBackend announces every ProveBatch call on entered and holds it
// until release closes (or the service shuts down), recording the most
// calls it held at once.
type gateBackend struct {
	stubBackend
	entered chan struct{}
	release chan struct{}

	gmu       sync.Mutex
	held, max int
}

func newGateBackend(calls int) *gateBackend {
	return &gateBackend{entered: make(chan struct{}, calls), release: make(chan struct{})}
}

func (b *gateBackend) ProveBatch(ctx context.Context, jobs []BackendJob) []BackendResult {
	b.gmu.Lock()
	b.held++
	b.max = max(b.max, b.held)
	b.gmu.Unlock()
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
	}
	b.gmu.Lock()
	b.held--
	b.gmu.Unlock()
	return b.stubBackend.ProveBatch(ctx, jobs)
}

func (b *gateBackend) maxHeld() int {
	b.gmu.Lock()
	defer b.gmu.Unlock()
	return b.max
}

// waitEntered waits for n more ProveBatch calls to reach the gate.
func (b *gateBackend) waitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-b.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d ProveBatch calls arrived", i, n)
		}
	}
}

// TestEveryLoopWakesOnBurst pushes six singles of distinct circuits at
// three idle loops in one burst, coalescing off. All three loops must
// wake and hold a backend call at once: a wake-up meant for one consumer
// would leave two loops asleep beside a non-empty queue. Released, the
// loops drain the rest, never more than three calls at a time.
func TestEveryLoopWakesOnBurst(t *testing.T) {
	const loops, singles = 3, 6
	gate := newGateBackend(singles)
	s := newLoopService(t, Config{BatchWindow: -1}, gate, loops)
	entries := make([]*circuitEntry, singles)
	assigns := make([]*hyperplonk.Assignment, singles)
	for i := range entries {
		var c *hyperplonk.Circuit
		c, assigns[i] = buildCircuit(t, uint64(30+i), 1)
		entries[i] = mustRegister(t, s, c)
	}
	jobs := make([]*job, singles)
	for i := range jobs {
		j, err := s.Submit(nil, entries[i], assigns[i], prioNormal, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	gate.waitEntered(t, loops)
	if d := s.QueueDepth(); d != singles-loops {
		t.Fatalf("queue depth %d with every loop held, want %d", d, singles-loops)
	}
	close(gate.release)
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never finished", j.id)
		}
		if r := j.response(); r.Status != api.StatusDone {
			t.Fatalf("job %s: %+v", j.id, r)
		}
	}
	if m := gate.maxHeld(); m != loops {
		t.Fatalf("at most %d concurrent ProveBatch calls, want %d", m, loops)
	}
	if p := gate.Stats().Proofs; p != singles {
		t.Fatalf("backend proved %d jobs, want %d", p, singles)
	}
}

// TestArrivalWakesEveryCollector holds two loops in their batch windows
// on different circuits, then submits a second job of the later loop's
// circuit. It must join that batch at once: a wake-up handed to a single
// waiter would go to the earlier loop's collector, which cannot use it,
// and leave the job queued until that window closes a minute later.
func TestArrivalWakesEveryCollector(t *testing.T) {
	s := newLoopService(t, Config{BatchWindow: time.Minute, MaxBatch: 2}, &stubBackend{}, 2)
	circuitA, assignA := buildCircuit(t, 40, 1)
	circuitB, assignsB := witnessesFor(t, 41, 2)
	entryA, entryB := mustRegister(t, s, circuitA), mustRegister(t, s, circuitB)
	popped := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.QueueDepth() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("no loop popped the job")
			}
			time.Sleep(time.Millisecond)
		}
	}
	submit := func(e *circuitEntry, a *hyperplonk.Assignment) *job {
		t.Helper()
		j, err := s.Submit(nil, e, a, prioNormal, nil)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	submit(entryA, assignA)
	popped()
	submit(entryB, assignsB[0])
	popped()
	j := submit(entryB, assignsB[1])
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
		t.Fatal("same-circuit arrival did not wake its collector")
	}
	if r := j.response(); r.Status != api.StatusDone || r.BatchSize != 2 {
		t.Fatalf("arrival: %+v, want done in a batch of 2", r)
	}
}

func TestSubmitBatchRefusedEnqueuesNothing(t *testing.T) {
	// 2 loops × capacity 4, both loops held, 3 jobs queued: the 2-statement
	// batch exceeds the one free slot and must be refused before any
	// statement is enqueued or tracked.
	gate := newGateBackend(2)
	s := newLoopService(t, Config{QueueCapacity: 4, BatchWindow: -1}, gate, 2)
	circuit, assigns := witnessesFor(t, 27, 7)
	entry := mustRegister(t, s, circuit)
	for i, a := range assigns[:5] {
		if _, err := s.Submit(nil, entry, a, prioNormal, nil); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			gate.waitEntered(t, 1) // each loop takes one job and is held
		}
	}
	if d := s.QueueDepth(); d != 3 {
		t.Fatalf("queue depth %d, want 3", d)
	}
	tracked := func() int {
		s.jobsMu.Lock()
		defer s.jobsMu.Unlock()
		return len(s.jobs)
	}
	before := tracked()

	_, err := s.SubmitBatch(nil, entry, assigns[5:], prioNormal, nil)
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("got %v, want OverloadedError", err)
	}
	if d := s.QueueDepth(); d != 3 {
		t.Fatalf("queue depth %d after a refused batch, want 3", d)
	}
	if n := tracked(); n != before {
		t.Fatalf("refused batch left %d tracked jobs", n-before)
	}
	if r := s.Metrics().Snapshot().JobsRejected; r != 2 {
		t.Fatalf("JobsRejected = %d, want the batch's 2 statements", r)
	}
}

// TestRetryAfterScalesWithLoops fills a 6-slot queue behind held loops
// after one measured 1 s proof: the loops drain the backlog in parallel,
// so Retry-After charges depth/loops proofs plus the one in flight.
func TestRetryAfterScalesWithLoops(t *testing.T) {
	for _, tc := range []struct {
		loops         int
		single, batch time.Duration // 6 queued + 1, and + 2 statements
	}{
		{1, 7 * time.Second, 9 * time.Second},
		{3, 3 * time.Second, 3*time.Second + time.Second/3*2},
	} {
		t.Run(fmt.Sprintf("loops%d", tc.loops), func(t *testing.T) {
			gate := newGateBackend(tc.loops)
			s := newLoopService(t, Config{QueueCapacity: 6, BatchWindow: -1}, gate, tc.loops)
			s.met.observeProve(time.Second, nil)
			circuit, assigns := witnessesFor(t, 28, tc.loops+9)
			entry := mustRegister(t, s, circuit)
			for i, a := range assigns[:tc.loops+6] {
				if _, err := s.Submit(nil, entry, a, prioNormal, nil); err != nil {
					t.Fatal(err)
				}
				if i < tc.loops {
					gate.waitEntered(t, 1)
				}
			}
			var over *OverloadedError
			if _, err := s.Submit(nil, entry, assigns[tc.loops+6], prioNormal, nil); !errors.As(err, &over) {
				t.Fatalf("submit into a full queue: %v", err)
			}
			if over.RetryAfter != tc.single {
				t.Fatalf("single Retry-After %v, want %v", over.RetryAfter, tc.single)
			}
			if _, err := s.SubmitBatch(nil, entry, assigns[tc.loops+7:], prioNormal, nil); !errors.As(err, &over) {
				t.Fatalf("batch into a full queue: %v", err)
			}
			if over.RetryAfter != tc.batch {
				t.Fatalf("batch Retry-After %v, want %v", over.RetryAfter, tc.batch)
			}
		})
	}
}

func TestReadyzLifecycle(t *testing.T) {
	s := newTestService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var ready api.Ready
	if resp := getJSON(t, srv, "/readyz", &ready); resp.StatusCode != http.StatusOK || !ready.Ready {
		t.Fatalf("fresh service: %d %+v", resp.StatusCode, ready)
	}
	s.SetReady(false, "preloading circuits")
	if resp := getJSON(t, srv, "/readyz", &ready); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unready service answered %d", resp.StatusCode)
	}
	if ready.Reason != "preloading circuits" {
		t.Fatalf("reason = %q", ready.Reason)
	}
	s.SetReady(true, "")
	if resp := getJSON(t, srv, "/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-readied service answered %d", resp.StatusCode)
	}
}

func TestProveBatchHTTP(t *testing.T) {
	s := newTestService(t, Config{BatchWindow: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	circuit, assigns := witnessesFor(t, 26, 4)
	circuitBlob, err := circuit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wits := make([][]byte, len(assigns))
	for i, a := range assigns {
		if wits[i], err = a.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}

	var resp api.ProveBatchResponse
	if r := postJSON(t, srv, "/v1/prove_batch", api.ProveBatchRequest{Circuit: circuitBlob, Witnesses: wits}, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("prove_batch: %d", r.StatusCode)
	}
	if len(resp.Results) != 4 || resp.Failed != 0 || resp.BatchDigest == "" {
		t.Fatalf("batch response: results=%d failed=%d digest=%q",
			len(resp.Results), resp.Failed, resp.BatchDigest)
	}

	if r := postJSON(t, srv, "/v1/prove_batch", api.ProveBatchRequest{Circuit: circuitBlob}, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty witness list: %d", r.StatusCode)
	}
	bad := api.ProveBatchRequest{Circuit: circuitBlob, Witnesses: [][]byte{{1, 2, 3}}}
	if r := postJSON(t, srv, "/v1/prove_batch", bad, nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed witness: %d", r.StatusCode)
	}
}
