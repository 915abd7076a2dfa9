package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
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

func TestSubmitBatchSpreadsAcrossShards(t *testing.T) {
	backends := []Backend{&stubBackend{}, &stubBackend{}, &stubBackend{}, &stubBackend{}}
	s := newTestService(t, Config{BatchWindow: time.Millisecond}, backends...)

	circuit, assigns := witnessesFor(t, 21, 8)
	entry := mustRegister(t, s, circuit)

	resp, err := s.ProveBatchWait(context.Background(), nil, entry, assigns, prioNormal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 8 || resp.Failed != 0 {
		t.Fatalf("results=%d failed=%d", len(resp.Results), resp.Failed)
	}
	if resp.BatchDigest == "" {
		t.Fatal("missing batch digest on a fully successful batch")
	}
	for i, r := range resp.Results {
		if r.Status != api.StatusDone || len(r.Proof) == 0 {
			t.Fatalf("statement %d: %+v", i, r)
		}
	}
	// Round-robin spread: every shard proved at least one statement.
	for i, b := range backends {
		if b.(*stubBackend).Stats().Proofs == 0 {
			t.Fatalf("shard %d proved nothing — batch was not spread", i)
		}
	}
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

// parkedBackend announces every ProveBatch call on entered and holds it
// until the service shuts down, pinning its shard loop.
type parkedBackend struct {
	stubBackend
	entered chan struct{}
}

func (b *parkedBackend) ProveBatch(ctx context.Context, jobs []BackendJob) []BackendResult {
	b.entered <- struct{}{}
	<-ctx.Done()
	return b.stubBackend.ProveBatch(ctx, jobs)
}

func TestSubmitBatchChecksEveryShardsShare(t *testing.T) {
	// 2 shards × capacity 4, both loops parked, 3 jobs queued on the home
	// shard: 5 slots are free in total, but the 4-statement batch puts 2
	// on the home shard, which has 1. It must be refused before any
	// statement is enqueued.
	entered := make(chan struct{}, 2) // one park per shard loop
	s := newTestService(t, Config{QueueCapacity: 4, BatchWindow: -1},
		&parkedBackend{entered: entered}, &parkedBackend{entered: entered})
	circuit, assigns := witnessesFor(t, 27, 9)
	entry := mustRegister(t, s, circuit)
	for i, a := range assigns[:5] {
		if _, err := s.Submit(nil, entry, a, prioNormal, nil); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			<-entered // the home loop, then the stealing sibling, park
		}
	}
	if d := s.shards[entry.shard].queue.Depth(); d != 3 {
		t.Fatalf("home shard depth %d, want 3", d)
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
}

func TestStealRebalancesAcrossShards(t *testing.T) {
	// All of one circuit's jobs route to its home shard; the idle sibling must drain part of the backlog. Coalescing is off so
	// queued jobs stay individually stealable, and the slow backend keeps
	// the home shard busy long enough for steals to happen.
	slowA := &stubBackend{delay: 20 * time.Millisecond}
	slowB := &stubBackend{delay: 20 * time.Millisecond}
	s := newTestService(t, Config{BatchWindow: -1, QueueCapacity: 64}, slowA, slowB)

	circuit, assigns := witnessesFor(t, 25, 8)
	entry := mustRegister(t, s, circuit)

	jobs := make([]*job, len(assigns))
	for i, a := range assigns {
		j, err := s.Submit(nil, entry, a, prioNormal, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	for _, j := range jobs {
		<-j.done
		if r := j.response(); r.Status != api.StatusDone {
			t.Fatalf("job %s: %+v", j.id, r)
		}
	}
	if slowA.Stats().Proofs == 0 || slowB.Stats().Proofs == 0 {
		t.Fatalf("work was not rebalanced: shard0=%d shard1=%d",
			slowA.Stats().Proofs, slowB.Stats().Proofs)
	}
	if stolen := s.Metrics().Snapshot().JobsStolen; stolen < 1 {
		t.Fatalf("JobsStolen = %d, want >= 1", stolen)
	}
}

// fakeCluster implements ClusterInfo for readiness and endpoint tests.
type fakeCluster struct {
	workers int
	closed  bool
}

func (f *fakeCluster) ClusterStatus() api.ClusterStatus {
	ws := make([]api.ClusterWorkerInfo, f.workers)
	for i := range ws {
		ws[i] = api.ClusterWorkerInfo{ID: uint64(i + 1), Name: "fake"}
	}
	return api.ClusterStatus{Addr: "127.0.0.1:0", Workers: ws, Dispatches: 3}
}
func (f *fakeCluster) WorkerCount() int { return f.workers }
func (f *fakeCluster) Close() error     { f.closed = true; return nil }

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

func TestReadyzRequiresClusterWorkers(t *testing.T) {
	fc := &fakeCluster{workers: 0}
	backends := []Backend{&stubBackend{}}
	s, err := New(Config{Cluster: fc}, backends)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var ready api.Ready
	if resp := getJSON(t, srv, "/readyz", &ready); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("zero-worker cluster coordinator answered %d", resp.StatusCode)
	}
	fc.workers = 2
	if resp := getJSON(t, srv, "/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("populated cluster answered %d", resp.StatusCode)
	}

	var cs api.ClusterStatus
	if resp := getJSON(t, srv, "/v1/cluster", &cs); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster: %d", resp.StatusCode)
	}
	if len(cs.Workers) != 2 || cs.Dispatches != 3 {
		t.Fatalf("cluster status %+v", cs)
	}
	s.Close()
	if !fc.closed {
		t.Fatal("service Close did not close the cluster coordinator")
	}
}

func TestClusterEndpointAbsentInLocalMode(t *testing.T) {
	s := newTestService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	if resp := getJSON(t, srv, "/v1/cluster", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/cluster on a local service: %d", resp.StatusCode)
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
