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

	circuit, assign := buildCircuit(t, 3, 7)
	circuitBlob, _ := circuit.MarshalBinary()
	witnessBlob, _ := assign.MarshalBinary()

	var submitted api.ProveResponse
	if resp := postJSON(t, srv, "/v1/prove", api.ProveRequest{
		Circuit: circuitBlob, Witness: witnessBlob,
	}, &submitted); resp.StatusCode != http.StatusAccepted {
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
		BatchWindow:   10 * time.Second, // park the first job in the collector
		MaxBatch:      8,
	}, stub)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Three distinct circuits so nothing coalesces with the parked job.
	submit := func(c, x uint64) *http.Response {
		circuit, assign := buildCircuit(t, c, x)
		cb, _ := circuit.MarshalBinary()
		wb, _ := assign.MarshalBinary()
		var out api.ProveResponse
		return postJSON(t, srv, "/v1/prove", api.ProveRequest{Circuit: cb, Witness: wb}, &out)
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
	resp, err := srv.Client().Post(srv.URL+"/v1/prove", "application/json",
		overloadBody(t))
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

// overloadBody builds the third distinct-circuit prove request body.
func overloadBody(t *testing.T) *bytes.Reader {
	t.Helper()
	circuit, assign := buildCircuit(t, 9, 7)
	cb, _ := circuit.MarshalBinary()
	wb, _ := assign.MarshalBinary()
	blob, err := json.Marshal(api.ProveRequest{Circuit: cb, Witness: wb})
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(blob)
}

func TestHTTPBadInputs(t *testing.T) {
	s := newTestService(t, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	circuit, assign := buildCircuit(t, 3, 7)
	cb, _ := circuit.MarshalBinary()
	wb, _ := assign.MarshalBinary()

	cases := []struct {
		name string
		req  api.ProveRequest
		code int
	}{
		{"no circuit", api.ProveRequest{Witness: wb}, http.StatusBadRequest},
		{"both circuit forms", api.ProveRequest{Circuit: cb, CircuitDigest: strings.Repeat("00", 32), Witness: wb}, http.StatusBadRequest},
		{"bad digest", api.ProveRequest{CircuitDigest: "zz", Witness: wb}, http.StatusBadRequest},
		{"unregistered digest", api.ProveRequest{CircuitDigest: strings.Repeat("ab", 32), Witness: wb}, http.StatusNotFound},
		{"garbage circuit", api.ProveRequest{Circuit: []byte{1, 2}, Witness: wb}, http.StatusBadRequest},
		{"garbage witness", api.ProveRequest{Circuit: cb, Witness: []byte{3}}, http.StatusBadRequest},
		{"bad priority", api.ProveRequest{Circuit: cb, Witness: wb, Priority: "urgent"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if resp := postJSON(t, srv, "/v1/prove", tc.req, nil); resp.StatusCode != tc.code {
			t.Errorf("%s: got %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
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
	// The prove path's register-on-use obeys the same bound…
	circuit, assign := buildCircuit(t, 11, 7)
	cb, _ := circuit.MarshalBinary()
	wb, _ := assign.MarshalBinary()
	if resp := postJSON(t, srv, "/v1/prove", api.ProveRequest{Circuit: cb, Witness: wb}, nil); resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("prove register-on-use beyond bound: %d, want 507", resp.StatusCode)
	}
	// …and a malformed witness never registers the circuit it carries.
	c2, _ := buildCircuit(t, 13, 7)
	cb2, _ := c2.MarshalBinary()
	if resp := postJSON(t, srv, "/v1/prove", api.ProveRequest{Circuit: cb2, Witness: []byte{1}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed witness: %d", resp.StatusCode)
	}
	if s.circuitCount() != 2 {
		t.Fatalf("registry holds %d circuits, want the bound of 2", s.circuitCount())
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestService(t, Config{BatchWindow: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	circuit, assign := buildCircuit(t, 3, 7)
	cb, _ := circuit.MarshalBinary()
	wb, _ := assign.MarshalBinary()
	var proved api.ProveResponse
	postJSON(t, srv, "/v1/prove", api.ProveRequest{Circuit: cb, Witness: wb, Wait: true}, &proved)
	postJSON(t, srv, "/v1/prove", api.ProveRequest{Circuit: cb, Witness: wb, Wait: true}, nil) // cache hit

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

func TestHTTPRegisterPCSSchemeMismatch(t *testing.T) {
	s := newTestService(t, Config{}) // the stub backend serves "pst"
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	circuit, _ := buildCircuit(t, 3, 7)
	cb, err := circuit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	register := func(scheme string, out any) *http.Response {
		return postJSON(t, srv, "/v1/circuits",
			api.RegisterCircuitRequest{Circuit: cb, PCSScheme: scheme}, out)
	}

	// Empty and matching scheme names register normally.
	var info api.CircuitInfo
	if resp := register("", &info); resp.StatusCode != http.StatusOK {
		t.Fatalf("empty scheme: %d, want 200", resp.StatusCode)
	}
	if info.PCSScheme != "pst" {
		t.Fatalf("CircuitInfo.PCSScheme = %q, want pst", info.PCSScheme)
	}
	if resp := register("pst", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("matching scheme: %d, want 200", resp.StatusCode)
	}

	// An unknown name and a known-but-unserved name are both 422, with
	// the machine-readable code and the full scheme list in the body.
	for _, scheme := range []string{"nope", "zeromorph"} {
		var apiErr api.Error
		resp := register(scheme, &apiErr)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("scheme %q: %d, want 422", scheme, resp.StatusCode)
		}
		if apiErr.Code != api.ErrCodePCSScheme {
			t.Errorf("scheme %q: code %q, want %q", scheme, apiErr.Code, api.ErrCodePCSScheme)
		}
		if len(apiErr.Schemes) == 0 {
			t.Errorf("scheme %q: error body lists no schemes", scheme)
		}
		for _, known := range apiErr.Schemes {
			if known == "pst" {
				goto ok
			}
		}
		t.Errorf("scheme %q: schemes %v missing the served scheme", scheme, apiErr.Schemes)
	ok:
	}
}
