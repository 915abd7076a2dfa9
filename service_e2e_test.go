package zkspeed_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"zkspeed"
	"zkspeed/api"
)

// TestServiceSharesOneSetupAcrossBatchWindow is the tentpole acceptance
// test: two concurrent clients proving the same circuit inside one batch
// window must share a single key setup (1 setup, 2 proofs, 1 ProveBatch
// call), an identical repeat request must be served from the proof cache
// without re-proving, and both proofs must verify.
func TestServiceSharesOneSetupAcrossBatchWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real proofs")
	}
	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{
		BatchWindow: 500 * time.Millisecond,
		MaxBatch:    8,
	}, zkspeed.WithEntropy(zkspeed.SeededEntropy(41)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Same circuit (same seed ⇒ same tables), two distinct witnesses:
	// SyntheticWorkloadSeeded couples them, so build two instances of the
	// same relation with different assignments via the builder.
	circuit1, assign1 := buildServiceCircuit(t, 3)
	circuit2, assign2 := buildServiceCircuit(t, 5)
	if circuit1.Digest() != circuit2.Digest() {
		t.Fatal("fixture circuits should share a digest (same relation)")
	}
	if assign1.Digest() == assign2.Digest() {
		t.Fatal("fixture witnesses should differ")
	}
	circuitBlob, err := circuit1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var info api.CircuitInfo
	postServiceJSON(t, srv, "/v1/circuits", api.RegisterCircuitRequest{Circuit: circuitBlob}, &info, http.StatusOK)

	// Two concurrent clients inside one batch window. Each body goes
	// through a pipe, and neither is written before both admissions are
	// open, so whichever statement a loop pops first, its batch is held
	// while the other is still being admitted. (No t.Fatal inside the
	// goroutines — errors are collected and checked afterwards.)
	var wg sync.WaitGroup
	responses := make([]api.ProveResponse, 2)
	errs := make([]error, 2)
	bodies := make([][]byte, 2)
	pipes := make([]*io.PipeWriter, 2)
	defer func() { // a failed wait must not leave srv.Close waiting on an upload
		for _, pw := range pipes {
			if pw != nil {
				pw.CloseWithError(errors.New("test ended"))
			}
		}
	}()
	for i, a := range []*zkspeed.Assignment{assign1, assign2} {
		blob, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if bodies[i], err = json.Marshal(api.ProveRequest{
			CircuitDigest: info.Digest, Witness: blob, Wait: true,
		}); err != nil {
			t.Fatal(err)
		}
		var pr *io.PipeReader
		pr, pipes[i] = io.Pipe()
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/prove", pr)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.ContentLength = int64(len(bodies[i]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Client().Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("prove status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}()
		waitAdmissions(t, srv, i+1)
	}
	for i, pw := range pipes {
		if _, err := pw.Write(bodies[i]); err != nil {
			t.Fatalf("client %d body: %v", i, err)
		}
		pw.Close()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i, resp := range responses {
		if resp.Status != api.StatusDone || len(resp.Proof) == 0 {
			t.Fatalf("client %d: %+v", i, resp)
		}
		if resp.BatchSize != 2 {
			t.Fatalf("client %d proved in batch of %d, want 2 (window did not coalesce)", i, resp.BatchSize)
		}
		var verified api.VerifyResponse
		postServiceJSON(t, srv, "/v1/verify", api.VerifyRequest{
			CircuitDigest: info.Digest, PublicInputs: resp.PublicInputs, Proof: resp.Proof,
		}, &verified, http.StatusOK)
		if !verified.Valid {
			t.Fatalf("client %d proof rejected: %+v", i, verified)
		}
	}

	metrics := scrapeMetrics(t, srv)
	if !strings.Contains(metrics, "\nzkproverd_key_setups_total 1\n") {
		t.Fatalf("key setups: want 1 (shared across the batch window)\n%s", metrics)
	}
	if !strings.Contains(metrics, "\nzkproverd_srs_setups_total 1\n") {
		t.Fatalf("SRS ceremonies: want 1\n%s", metrics)
	}
	snap := svc.Metrics().Snapshot()
	if snap.ProveCount != 2 {
		t.Fatalf("proofs = %d, want 2", snap.ProveCount)
	}
	if snap.Batches != 1 || snap.BatchJobs != 2 {
		t.Fatalf("batches %+v, want one ProveBatch carrying both jobs", snap)
	}

	// A byte-identical repeat request is served from the proof cache.
	blob1, _ := assign1.MarshalBinary()
	var cached api.ProveResponse
	postServiceJSON(t, srv, "/v1/prove", api.ProveRequest{
		CircuitDigest: info.Digest, Witness: blob1, Wait: true,
	}, &cached, http.StatusOK)
	if !cached.Cached {
		t.Fatal("identical request was not served from the proof cache")
	}
	if !bytes.Equal(cached.Proof, responses[0].Proof) {
		t.Fatal("cache returned different proof bytes")
	}
	if snap := svc.Metrics().Snapshot(); snap.ProveCount != 2 {
		t.Fatalf("cache hit re-proved: %d proofs", snap.ProveCount)
	}
}

// TestServiceOverloadBackpressure asserts the service sheds load instead
// of queueing unboundedly: with a single-slot queue and a long batch
// window, the third submission gets 429 with an actionable Retry-After.
func TestServiceOverloadBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real proofs")
	}
	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{
		QueueCapacity: 1,
		BatchWindow:   10 * time.Second,
		MaxBatch:      8,
	}, zkspeed.WithEntropy(zkspeed.SeededEntropy(42)))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// A stream upload left unfinished keeps an admission open, which
	// parks the first job in the collector. Its relation is a fourth one.
	parked := parkAdmission(t, srv, 4)
	defer parked()

	// Three distinct relations so nothing coalesces with the parked job.
	submit := func(gap uint64, wantCode int) *http.Response {
		circuit, assign := buildServiceCircuitGap(t, gap, 3)
		cb, err := circuit.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := assign.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var info api.CircuitInfo
		postServiceJSON(t, srv, "/v1/circuits", api.RegisterCircuitRequest{Circuit: cb}, &info, http.StatusOK)
		return postServiceJSON(t, srv, "/v1/prove",
			api.ProveRequest{CircuitDigest: info.Digest, Witness: wb}, nil, wantCode)
	}
	submit(1, http.StatusAccepted)
	// Wait for the loop to move job 1 into its batch collector so the
	// single queue slot is free again.
	deadline := time.Now().Add(10 * time.Second)
	for svc.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never dequeued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	submit(2, http.StatusAccepted)
	resp := submit(3, http.StatusTooManyRequests)
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After header %q not a positive integer", resp.Header.Get("Retry-After"))
	}
	if depth := svc.QueueDepth(); depth > 1 {
		t.Fatalf("queue grew to %d despite capacity 1", depth)
	}
}

// parkAdmission registers the relation of gap c and starts a
// /v1/prove_stream upload for it whose body never arrives, then waits
// until /metrics shows the admission open. The returned func abandons
// the upload and waits for its answer.
func parkAdmission(t *testing.T, srv *httptest.Server, c uint64) (abandon func()) {
	t.Helper()
	circuit, _ := buildServiceCircuitGap(t, c, 3)
	blob, err := circuit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var info api.CircuitInfo
	postServiceJSON(t, srv, "/v1/circuits", api.RegisterCircuitRequest{Circuit: blob}, &info, http.StatusOK)
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/prove_stream?circuit_digest="+info.Digest, pr)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 1 << 10
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		if resp, err := srv.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitAdmissions(t, srv, 1)
	return func() {
		pw.CloseWithError(errors.New("upload abandoned"))
		<-answered
	}
}

// waitAdmissions waits until /metrics shows n prove requests being
// admitted.
func waitAdmissions(t *testing.T, srv *httptest.Server, n int) {
	t.Helper()
	want := fmt.Sprintf("\nzkproverd_admissions_open %d\n", n)
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(scrapeMetrics(t, srv), want) {
		if time.Now().After(deadline) {
			t.Fatalf("%d admissions never opened", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// scrapeMetrics returns the service's /metrics text.
func scrapeMetrics(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(text)
}

// TestPreloadWarmsEveryLoop preloads a circuit on a three-loop service and
// then proves a 9-statement batch over it. The loops share one Engine, so
// the batch runs on the one SRS ceremony and one key setup Preload paid
// for, whichever loop proves a statement; every proof verifies,
// resubmitting a witness is a cache hit with the same bytes, and a second
// service from the same seed proves byte-identical proofs.
func TestPreloadWarmsEveryLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real proofs")
	}
	ctx := context.Background()
	var circuit *zkspeed.Circuit
	assigns := make([]*zkspeed.Assignment, 9)
	pubs := make([][]zkspeed.Scalar, len(assigns))
	for i := range assigns {
		circuit, assigns[i], pubs[i] = smallCircuit(t, uint64(20+i))
	}
	witnesses := make([][]byte, len(assigns))
	for i, a := range assigns {
		var err error
		if witnesses[i], err = a.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	circuitBlob, err := circuit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	digest := circuit.Digest()
	run := func() (*zkspeed.ProverService, *httptest.Server, []api.ProveResponse) {
		svc, err := zkspeed.NewService(zkspeed.ServiceConfig{Shards: 3}, zkspeed.WithEntropy(zkspeed.SeededEntropy(7)))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		if _, err := svc.Preload(ctx, circuit); err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc.Handler())
		t.Cleanup(srv.Close)
		var info api.CircuitInfo
		postServiceJSON(t, srv, "/v1/circuits", api.RegisterCircuitRequest{Circuit: circuitBlob}, &info, http.StatusOK)
		var resp api.ProveBatchResponse
		postServiceJSON(t, srv, "/v1/prove_batch", api.ProveBatchRequest{
			CircuitDigest: info.Digest, Witnesses: witnesses,
		}, &resp, http.StatusOK)
		if resp.Failed != 0 || len(resp.Results) != len(assigns) {
			t.Fatalf("batch: failed=%d results=%d", resp.Failed, len(resp.Results))
		}
		return svc, srv, resp.Results
	}

	svc, srv, results := run()
	metrics := scrapeMetrics(t, srv)
	if !strings.Contains(metrics, "\nzkproverd_srs_setups_total 1\n") || !strings.Contains(metrics, "\nzkproverd_key_setups_total 1\n") {
		t.Fatalf("after Preload and a 3-loop batch, want 1 SRS ceremony and 1 key setup:\n%s", metrics)
	}
	entry, err := svc.RegisterCircuit(circuit)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		var proof zkspeed.Proof
		if err := proof.UnmarshalBinary(r.Proof); err != nil {
			t.Fatal(err)
		}
		if err := svc.Verify(ctx, entry, pubs[i], &proof); err != nil {
			t.Fatalf("statement %d does not verify: %v", i, err)
		}
		var again api.ProveResponse
		postServiceJSON(t, srv, "/v1/prove", api.ProveRequest{
			CircuitDigest: hex.EncodeToString(digest[:]), Witness: witnesses[i], Wait: true,
		}, &again, http.StatusOK)
		if !again.Cached || !bytes.Equal(again.Proof, r.Proof) {
			t.Fatalf("statement %d resubmitted: cached=%v, same bytes=%v", i, again.Cached, bytes.Equal(again.Proof, r.Proof))
		}
	}

	_, _, twin := run()
	for i := range results {
		if !bytes.Equal(twin[i].Proof, results[i].Proof) {
			t.Fatalf("statement %d: a service from the same seed proved different bytes", i)
		}
	}
}

// TestNewServiceConstructionErrors drives NewService's refusals on a
// durable store: an entropy source that fails the 64-byte seed read and
// a missing tenants file each return an error instead of a half-built
// service, and none leaves the store it opened running: the process has
// as many open files after the refusal as before it (an open WAL holds
// its active segment). A service then built with good options on the
// same store directory starts, has replayed nothing, and proves a
// statement that verifies.
func TestNewServiceConstructionErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real proof")
	}
	dir := t.TempDir()
	durable := zkspeed.ServiceConfig{StoreDir: dir}
	noTenants := durable
	noTenants.TenantsFile = filepath.Join(dir, "absent.json")
	cases := []struct {
		name string
		cfg  zkspeed.ServiceConfig
		opt  zkspeed.Option
	}{
		{"entropy error", durable, zkspeed.WithEntropy(iotest.ErrReader(errors.New("entropy unavailable")))},
		{"missing tenants file", noTenants, zkspeed.WithEntropy(zkspeed.SeededEntropy(3))},
	}
	files := openFiles(t)
	for _, tc := range cases {
		if svc, err := zkspeed.NewService(tc.cfg, tc.opt); err == nil {
			svc.Close()
			t.Fatalf("%s: NewService succeeded", tc.name)
		}
		if n := openFiles(t); n != files {
			t.Fatalf("%s: %d open files after the refusal, want %d: the store was not closed", tc.name, n, files)
		}
	}

	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{StoreDir: dir}, zkspeed.WithEntropy(zkspeed.SeededEntropy(3)))
	if err != nil {
		t.Fatalf("good options after the refusals: %v", err)
	}
	defer svc.Close()
	if rec := svc.Recovery(); rec != (zkspeed.ServiceRecoveryStats{Durable: true}) {
		t.Fatalf("refused constructions left state behind: %+v", rec)
	}
	circuit, assign, pub := smallCircuit(t, 4)
	entry, err := svc.RegisterCircuit(circuit)
	if err != nil {
		t.Fatal(err)
	}
	witness, err := assign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	digest := circuit.Digest()
	var resp api.ProveResponse
	postServiceJSON(t, srv, "/v1/prove", api.ProveRequest{
		CircuitDigest: hex.EncodeToString(digest[:]), Witness: witness, Wait: true,
	}, &resp, http.StatusOK)
	var proof zkspeed.Proof
	if err := proof.UnmarshalBinary(resp.Proof); err != nil {
		t.Fatal(err)
	}
	if err := svc.Verify(context.Background(), entry, pub, &proof); err != nil {
		t.Fatalf("proof from the rebuilt service: %v", err)
	}
}

// openFiles counts the process's open file descriptors; it skips the test
// where /proc/self/fd cannot be read.
func openFiles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("counting open files: %v", err)
	}
	return len(fds)
}

// buildServiceCircuit compiles x²+3x+5 == y (y public) for the given x:
// one relation, witness varies with x.
func buildServiceCircuit(t *testing.T, x uint64) (*zkspeed.Circuit, *zkspeed.Assignment) {
	t.Helper()
	return buildServiceCircuitGap(t, 3, x)
}

// buildServiceCircuitGap varies the linear coefficient, yielding circuits
// with distinct digests.
func buildServiceCircuitGap(t *testing.T, c, x uint64) (*zkspeed.Circuit, *zkspeed.Assignment) {
	t.Helper()
	b := zkspeed.NewBuilder()
	xv := b.Witness(zkspeed.NewScalar(x))
	x2 := b.Mul(xv, xv)
	cx := b.MulConst(zkspeed.NewScalar(c), xv)
	s := b.Add(x2, cx)
	y := b.AddConst(s, zkspeed.NewScalar(5))
	yPub := b.PublicInput(b.Value(y))
	b.AssertEqual(y, yPub)
	circuit, assignment, _, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return circuit, assignment
}

// postServiceJSON posts a JSON body and decodes the response, asserting
// the status code.
func postServiceJSON(t *testing.T, srv *httptest.Server, path string, body, out any, wantCode int) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, wantCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp
}
