package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zkspeed/api"
	"zkspeed/internal/tenant"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body, out any) *http.Response {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) *http.Response {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", path, err)
		}
	}
	return resp
}

func TestHTTPRegisterProveVerifyFlow(t *testing.T) {
	s := newTestService(t, Config{BatchWindow: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	circuit, assign := buildCircuit(t, 3, 7)
	circuitBlob, err := circuit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	witnessBlob, err := assign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var info api.CircuitInfo
	if resp := postJSON(t, srv, "/v1/circuits", api.RegisterCircuitRequest{Circuit: circuitBlob}, &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d", resp.StatusCode)
	}
	if info.Mu != circuit.Mu || info.NumGates != circuit.NumGates() {
		t.Fatalf("register info %+v", info)
	}

	var lookup api.CircuitInfo
	if resp := getJSON(t, srv, "/v1/circuits/"+info.Digest, &lookup); resp.StatusCode != http.StatusOK {
		t.Fatalf("circuit lookup: %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv, "/v1/circuits/"+strings.Repeat("00", 32), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown circuit lookup: %d", resp.StatusCode)
	}

	var proved api.ProveResponse
	if resp := postJSON(t, srv, "/v1/prove", api.ProveRequest{
		CircuitDigest: info.Digest, Witness: witnessBlob, Wait: true,
	}, &proved); resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: %d", resp.StatusCode)
	}
	if proved.Status != api.StatusDone || len(proved.Proof) == 0 {
		t.Fatalf("prove response %+v", proved)
	}
	if len(proved.PublicInputs) != circuit.NumPublic {
		t.Fatalf("got %d public inputs, want %d", len(proved.PublicInputs), circuit.NumPublic)
	}

	var verified api.VerifyResponse
	if resp := postJSON(t, srv, "/v1/verify", api.VerifyRequest{
		CircuitDigest: info.Digest, PublicInputs: proved.PublicInputs, Proof: proved.Proof,
	}, &verified); resp.StatusCode != http.StatusOK {
		t.Fatalf("verify: %d", resp.StatusCode)
	}
	if !verified.Valid {
		t.Fatalf("verify rejected: %+v", verified)
	}

	// Malformed proof bytes are a definitive "invalid", not an HTTP error.
	var badVerify api.VerifyResponse
	if resp := postJSON(t, srv, "/v1/verify", api.VerifyRequest{
		CircuitDigest: info.Digest, PublicInputs: proved.PublicInputs, Proof: []byte{1, 2, 3},
	}, &badVerify); resp.StatusCode != http.StatusOK {
		t.Fatalf("bad verify: %d", resp.StatusCode)
	}
	if badVerify.Valid {
		t.Fatal("garbage proof verified")
	}

	var health api.Health
	if resp := getJSON(t, srv, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if health.Status != "ok" || health.Circuits != 1 || health.JobsDone != 1 {
		t.Fatalf("health %+v", health)
	}
}

func TestHTTPAsyncSubmitAndPoll(t *testing.T) {
	stub := &stubBackend{delay: 200 * time.Millisecond}
	s := newTestService(t, Config{BatchWindow: time.Millisecond}, stub)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var submitted api.ProveResponse
	if resp := postJSON(t, srv, "/v1/prove", proveRequest(t, s, 3, 7, false), &submitted); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d", resp.StatusCode)
	}
	if submitted.JobID == "" || submitted.Status == api.StatusDone {
		t.Fatalf("async submit response %+v", submitted)
	}
	deadline := time.Now().Add(10 * time.Second)
	var polled api.ProveResponse
	for {
		if resp := getJSON(t, srv, "/v1/jobs/"+submitted.JobID, &polled); resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		if polled.Status == api.StatusDone || polled.Status == api.StatusFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", polled.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if polled.Status != api.StatusDone || len(polled.Proof) == 0 {
		t.Fatalf("polled %+v", polled)
	}
	if resp := getJSON(t, srv, "/v1/jobs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
}

func TestHTTPOverloadReturns429WithRetryAfter(t *testing.T) {
	stub := &stubBackend{delay: 5 * time.Second}
	s := newTestService(t, Config{
		QueueCapacity: 1,
		BatchWindow:   10 * time.Second,
		MaxBatch:      8,
	}, stub)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// An admission held open parks the first job in the collector.
	defer holdAdmission(s)()

	// Three distinct circuits so nothing coalesces with the parked job.
	submit := func(c, x uint64) *http.Response {
		var out api.ProveResponse
		return postJSON(t, srv, "/v1/prove", proveRequest(t, s, c, x, false), &out)
	}
	if resp := submit(3, 7); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	// Wait for the loop to move the first job from the queue into its
	// batch collector, freeing the single queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never dequeued")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp := submit(5, 7); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	blob, err := json.Marshal(proveRequest(t, s, 9, 7, false))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/prove", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp.StatusCode)
	}
	retry := resp.Header.Get("Retry-After")
	if retry == "" {
		t.Fatal("429 without Retry-After header")
	}
	var sec int
	if _, err := fmt.Sscanf(retry, "%d", &sec); err != nil || sec < 1 {
		t.Fatalf("Retry-After %q not a positive integer", retry)
	}
	var body api.Error
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.RetryAfterSec != sec {
		t.Fatalf("header says %d, body says %d", sec, body.RetryAfterSec)
	}
	if snap := s.Metrics().Snapshot(); snap.JobsRejected != 1 {
		t.Fatalf("rejected counter %d, want 1", snap.JobsRejected)
	}
}

// proveRequest registers the circuit of buildCircuit(c, x) and returns
// a request proving its witness by digest.
func proveRequest(t *testing.T, s *Service, c, x uint64, wait bool) api.ProveRequest {
	t.Helper()
	circuit, assign := buildCircuit(t, c, x)
	entry := mustRegister(t, s, circuit)
	wb, err := assign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return api.ProveRequest{CircuitDigest: fmt.Sprintf("%x", entry.digest), Witness: wb, Wait: wait}
}

func TestHTTPBadInputs(t *testing.T) {
	s := newTestService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	circuit, assign := buildCircuit(t, 3, 7)
	cb, _ := circuit.MarshalBinary()
	wb, _ := assign.MarshalBinary()
	digest := fmt.Sprintf("%x", circuit.Digest())

	cases := []struct {
		name string
		req  any
		code int
	}{
		{"no circuit", api.ProveRequest{Witness: wb}, http.StatusBadRequest},
		{"garbage witness", api.ProveRequest{CircuitDigest: digest, Witness: []byte{3}}, http.StatusBadRequest},
		// The queue has no priorities: the field is unknown to the decoder.
		{"bad priority", map[string]any{"circuit_digest": digest, "witness": wb, "priority": "urgent"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if resp := postJSON(t, srv, "/v1/prove", tc.req, nil); resp.StatusCode != tc.code {
			t.Errorf("%s: got %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
	}
	// The daemon's engine alone picks the scheme: a registration cannot
	// name one.
	if resp := postJSON(t, srv, "/v1/circuits", map[string]any{"circuit": cb, "pcs_scheme": "pst"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("pcs_scheme: got %d, want 400", resp.StatusCode)
	}
	if n := s.circuitCount(); n != 0 {
		t.Errorf("bad inputs registered %d circuits", n)
	}
}

// TestDigestRoutes: every route but registration names its circuit by
// hex digest through one lookup, which answers 400 for a digest that is
// not 64 hex characters and 404 for one nobody registered. A prove body
// that carries a circuit blob answers 400 and registers nothing.
func TestDigestRoutes(t *testing.T) {
	s := newTestService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	circuit, assign := buildCircuit(t, 3, 7)
	cb, _ := circuit.MarshalBinary()
	wb, _ := assign.MarshalBinary()

	send := func(method, path string, body []byte) int {
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	jsonBody := func(v any) []byte {
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	routes := []struct {
		name    string
		request func(digest string) int
	}{
		{"GET /v1/circuits/{digest}", func(d string) int {
			return send(http.MethodGet, "/v1/circuits/"+d, nil)
		}},
		{"POST /v1/prove", func(d string) int {
			return send(http.MethodPost, "/v1/prove", jsonBody(api.ProveRequest{CircuitDigest: d, Witness: wb}))
		}},
		{"POST /v1/prove_stream", func(d string) int {
			return send(http.MethodPost, "/v1/prove_stream?circuit_digest="+d, wb)
		}},
		{"POST /v1/prove_batch", func(d string) int {
			return send(http.MethodPost, "/v1/prove_batch", jsonBody(api.ProveBatchRequest{CircuitDigest: d, Witnesses: [][]byte{wb}}))
		}},
		{"POST /v1/verify", func(d string) int {
			return send(http.MethodPost, "/v1/verify", jsonBody(api.VerifyRequest{CircuitDigest: d, Proof: []byte{1}}))
		}},
	}
	for _, rt := range routes {
		for _, tc := range []struct {
			digest string
			code   int
		}{
			{"zz", http.StatusBadRequest},
			{strings.Repeat("ab", 31), http.StatusBadRequest},
			{strings.Repeat("ab", 32), http.StatusNotFound},
		} {
			if code := rt.request(tc.digest); code != tc.code {
				t.Errorf("%s with digest %q: got %d, want %d", rt.name, tc.digest, code, tc.code)
			}
		}
	}
	// Ignoring the blob would answer 404, registering it 200 or 202.
	digest := fmt.Sprintf("%x", circuit.Digest())
	for path, body := range map[string]map[string]any{
		"/v1/prove":       {"circuit_digest": digest, "circuit": cb, "witness": wb},
		"/v1/prove_batch": {"circuit_digest": digest, "circuit": cb, "witnesses": [][]byte{wb}},
	} {
		if code := send(http.MethodPost, path, jsonBody(body)); code != http.StatusBadRequest {
			t.Errorf("%s carrying a circuit: got %d, want 400", path, code)
		}
	}
	if n := s.circuitCount(); n != 0 {
		t.Fatalf("the digest routes registered %d circuits", n)
	}
}

// TestUnregisteredCircuitSpendsNoBytes: POST /v1/prove and
// /v1/prove_batch look the circuit up before they charge the witness to
// the tenant's byte bucket, so a tenant whose bucket holds one witness
// gets 404 for an unregistered digest and can still prove that witness.
func TestUnregisteredCircuitSpendsNoBytes(t *testing.T) {
	circuit, assign := buildCircuit(t, 3, 7)
	wb, err := assign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		body func(digest string) any
	}{
		{"/v1/prove", func(d string) any { return api.ProveRequest{CircuitDigest: d, Witness: wb, Wait: true} }},
		{"/v1/prove_batch", func(d string) any { return api.ProveBatchRequest{CircuitDigest: d, Witnesses: [][]byte{wb}} }},
	} {
		t.Run(tc.path, func(t *testing.T) {
			now := time.Now() // frozen: the bucket never refills
			reg, err := tenant.NewRegistry([]tenant.Config{{
				ID: "a", Key: "ka", WitnessBytesPerSec: 1, BytesBurst: int64(len(wb)),
			}}, tenant.WithClock(func() time.Time { return now }))
			if err != nil {
				t.Fatal(err)
			}
			s := newTestService(t, Config{Tenants: reg})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			digest := fmt.Sprintf("%x", mustRegister(t, s, circuit).digest)
			for _, step := range []struct {
				digest string
				code   int
			}{
				{strings.Repeat("ab", 32), http.StatusNotFound},
				{digest, http.StatusOK},
			} {
				blob, err := json.Marshal(tc.body(step.digest))
				if err != nil {
					t.Fatal(err)
				}
				req, err := http.NewRequest(http.MethodPost, srv.URL+tc.path, bytes.NewReader(blob))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Authorization", "Bearer ka")
				resp, err := srv.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != step.code {
					t.Fatalf("digest %s…: got %d, want %d", step.digest[:8], resp.StatusCode, step.code)
				}
			}
		})
	}
}

func TestHTTPRegistryBound(t *testing.T) {
	s := newTestService(t, Config{MaxCircuits: 2})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	register := func(c uint64) *http.Response {
		circuit, _ := buildCircuit(t, c, 7)
		cb, err := circuit.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return postJSON(t, srv, "/v1/circuits", api.RegisterCircuitRequest{Circuit: cb}, nil)
	}
	if resp := register(3); resp.StatusCode != http.StatusOK {
		t.Fatalf("first register: %d", resp.StatusCode)
	}
	if resp := register(5); resp.StatusCode != http.StatusOK {
		t.Fatalf("second register: %d", resp.StatusCode)
	}
	// Re-registering a known circuit is idempotent, not a new slot.
	if resp := register(3); resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-register: %d", resp.StatusCode)
	}
	if resp := register(9); resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("register beyond bound: %d, want 507", resp.StatusCode)
	}
	if s.circuitCount() != 2 {
		t.Fatalf("registry holds %d circuits, want the bound of 2", s.circuitCount())
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestService(t, Config{BatchWindow: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	req := proveRequest(t, s, 3, 7, true)
	var proved api.ProveResponse
	postJSON(t, srv, "/v1/prove", req, &proved)
	postJSON(t, srv, "/v1/prove", req, nil) // cache hit

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`zkproverd_jobs_total{status="done"} 1`,
		`zkproverd_jobs_total{status="cached"} 1`,
		"zkproverd_batches_total 1",
		`zkproverd_step_seconds_total{step="witness_commit"}`,
		"zkproverd_prove_seconds_bucket",
		"zkproverd_prove_seconds_count 1",
		"zkproverd_circuits_registered 1",
		"zkproverd_proof_cache_entries 1",
		"zkproverd_queue_depth 0",
		`zkproverd_http_requests_total{route="POST /v1/prove",code="200"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
}
