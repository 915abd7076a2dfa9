package client_test

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zkspeed"
	"zkspeed/api"
	"zkspeed/client"
)

func startService(t *testing.T, cfg zkspeed.ServiceConfig) *httptest.Server {
	t.Helper()
	svc, err := zkspeed.NewService(cfg, zkspeed.WithEntropy(zkspeed.SeededEntropy(11)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)
	return srv
}

func buildCircuit(t *testing.T, c, x uint64) (*zkspeed.Circuit, *zkspeed.Assignment) {
	t.Helper()
	b := zkspeed.NewBuilder()
	xv := b.Witness(zkspeed.NewScalar(x))
	y := b.Add(b.Mul(xv, xv), b.MulConst(zkspeed.NewScalar(c), xv))
	yPub := b.PublicInput(b.Value(y))
	b.AssertEqual(y, yPub)
	circuit, assign, _, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return circuit, assign
}

func TestClientEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real proofs")
	}
	srv := startService(t, zkspeed.ServiceConfig{BatchWindow: time.Millisecond})
	cl := client.New(srv.URL, client.WithHTTPClient(srv.Client()), client.WithPollInterval(10*time.Millisecond))
	ctx := context.Background()

	circuit, assign := buildCircuit(t, 3, 7)
	digest, err := cl.RegisterCircuit(ctx, circuit)
	if err != nil {
		t.Fatal(err)
	}
	info, err := cl.Circuit(ctx, digest)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mu != circuit.Mu {
		t.Fatalf("circuit info %+v", info)
	}

	res, err := cl.Prove(ctx, digest, assign)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.Proof == nil {
		t.Fatalf("first prove: %+v", res)
	}
	if err := cl.Verify(ctx, digest, res.PublicInputs, res.Proof); err != nil {
		t.Fatalf("verify: %v", err)
	}

	// The identical request is served from the proof cache.
	again, err := cl.Prove(ctx, digest, assign)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Fatal("identical request not cached")
	}

	// Async path on a fresh witness.
	_, assign2 := buildCircuit(t, 3, 8)
	jobID, err := cl.SubmitProve(ctx, digest, assign2)
	if err != nil {
		t.Fatal(err)
	}
	asyncRes, err := cl.WaitJob(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Verify(ctx, digest, asyncRes.PublicInputs, asyncRes.Proof); err != nil {
		t.Fatalf("async verify: %v", err)
	}

	// A proof for the wrong witness must be definitively invalid.
	err = cl.Verify(ctx, digest, res.PublicInputs, asyncRes.Proof)
	if !errors.Is(err, client.ErrInvalidProof) {
		t.Fatalf("cross-witness verify: %v", err)
	}

	h, err := cl.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health: %v %+v", err, h)
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil || !strings.Contains(metrics, "zkproverd_jobs_total") {
		t.Fatalf("metrics: %v", err)
	}

	// Batch proving: distinct witnesses of the registered circuit, every
	// proof verifiable, batch digest present.
	var batchAssigns []*zkspeed.Assignment
	for x := uint64(20); x < 23; x++ {
		_, a := buildCircuit(t, 3, x)
		batchAssigns = append(batchAssigns, a)
	}
	batch, err := cl.ProveBatch(ctx, digest, batchAssigns)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Failed != 0 || batch.BatchDigest == "" || len(batch.Statements) != 3 {
		t.Fatalf("batch: failed=%d digest=%q statements=%d", batch.Failed, batch.BatchDigest, len(batch.Statements))
	}
	for i, st := range batch.Statements {
		if st.Err != nil {
			t.Fatalf("batch statement %d: %v", i, st.Err)
		}
		if err := cl.Verify(ctx, digest, st.Result.PublicInputs, st.Result.Proof); err != nil {
			t.Fatalf("batch statement %d verify: %v", i, err)
		}
	}

	ready, err := cl.Ready(ctx)
	if err != nil || !ready.Ready {
		t.Fatalf("ready: %v %+v", err, ready)
	}
}

// TestClientSurfacesOverload: a front end that rejects the first attempt
// with 429 and Retry-After before a real service. The client makes one
// attempt and surfaces the refusal as *OverloadedError carrying the
// server's Retry-After; backing off is the caller's choice.
func TestClientSurfacesOverload(t *testing.T) {
	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{}, zkspeed.WithEntropy(zkspeed.SeededEntropy(12)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	var attempts atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	circuit, _ := buildCircuit(t, 5, 9)
	cl := client.New(flaky.URL, client.WithHTTPClient(flaky.Client()))
	var over *client.OverloadedError
	if _, err := cl.RegisterCircuit(context.Background(), circuit); !errors.As(err, &over) {
		t.Fatalf("got %v, want OverloadedError", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("client made %d attempts, want 1", got)
	}
	if over.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %s, want 1s", over.RetryAfter)
	}
}

// TestClientRejectsNonCanonicalPublicInput: the client decodes a
// server's public inputs as untrusted bytes. A stub in front of a real
// service swaps the first public input for r, the scalar field's
// modulus (a second 32-byte spelling of 0); the client must refuse the
// response, not reduce it mod r.
func TestClientRejectsNonCanonicalPublicInput(t *testing.T) {
	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{}, zkspeed.WithEntropy(zkspeed.SeededEntropy(13)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	r, _ := hex.DecodeString("73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001")
	var tamper atomic.Bool
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/prove" || !tamper.Load() {
			svc.Handler().ServeHTTP(w, req)
			return
		}
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, req)
		var resp api.ProveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.PublicInputs) == 0 {
			http.Error(w, "stub: response without public inputs", http.StatusInternalServerError)
			return
		}
		resp.PublicInputs[0] = r
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(stub.Close)

	circuit, assign := buildCircuit(t, 5, 9)
	ctx := context.Background()
	cl := client.New(stub.URL)
	digest, err := cl.RegisterCircuit(ctx, circuit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Prove(ctx, digest, assign); err != nil {
		t.Fatalf("untampered prove: %v", err)
	}
	tamper.Store(true)
	res, err := cl.Prove(ctx, digest, assign)
	if err == nil || !strings.Contains(err.Error(), "non-canonical") {
		t.Fatalf("public input r accepted: result %+v, err %v", res, err)
	}
}

func TestClientUnknownCircuit(t *testing.T) {
	srv := startService(t, zkspeed.ServiceConfig{})
	cl := client.New(srv.URL)
	_, err := cl.Circuit(context.Background(), strings.Repeat("ab", 32))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Fatalf("unknown circuit: %v", err)
	}
}

// TestClientTenantKeys drives the tenant path against a service started
// with a tenants file: no key is refused, WithAPIKey authenticates a full
// register → prove → verify flow, and a tenant over its request-rate
// quota gets a *QuotaError carrying the server's code.
func TestClientTenantKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real proofs")
	}
	tenants := filepath.Join(t.TempDir(), "tenants.json")
	// bob's bucket holds one request and refills once every ~17 minutes.
	if err := os.WriteFile(tenants, []byte(`{"tenants":[
		{"id":"alice","key":"alice-key"},
		{"id":"bob","key":"bob-key","requests_per_sec":0.001,"burst":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := startService(t, zkspeed.ServiceConfig{BatchWindow: time.Millisecond, TenantsFile: tenants})
	ctx := context.Background()
	circuit, assign := buildCircuit(t, 5, 4)
	newClient := func(opts ...client.Option) *client.Client {
		return client.New(srv.URL, append(opts, client.WithHTTPClient(srv.Client()))...)
	}

	var apiErr *client.APIError
	if _, err := newClient().RegisterCircuit(ctx, circuit); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnauthorized {
		t.Fatalf("register without a key: got %v, want APIError 401", err)
	}

	alice := newClient(client.WithAPIKey("alice-key"))
	digest, err := alice.RegisterCircuit(ctx, circuit)
	if err != nil {
		t.Fatal(err)
	}
	res, err := alice.Prove(ctx, digest, assign)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Verify(ctx, digest, res.PublicInputs, res.Proof); err != nil {
		t.Fatalf("verify: %v", err)
	}

	bob := newClient(client.WithAPIKey("bob-key"))
	if _, err := bob.RegisterCircuit(ctx, circuit); err != nil {
		t.Fatal(err) // spends bob's one request
	}
	var qe *client.QuotaError
	if _, err := bob.Prove(ctx, digest, assign); !errors.As(err, &qe) {
		t.Fatalf("prove over the rate quota: got %v, want QuotaError", err)
	}
	if qe.Code != api.ErrCodeQuotaRate || !qe.Retryable() || qe.RetryAfter <= 0 {
		t.Fatalf("quota error %+v: want code %q, retryable, with a Retry-After", qe, api.ErrCodeQuotaRate)
	}
}
