package client_test

import (
	"context"
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

// TestClientAutoRetry exercises the 429 auto-retry against a flaky front
// end that rejects the first two attempts with Retry-After and then
// forwards to a real service. The tight WithRetryBackoff cap keeps the
// test fast while still proving the schedule is honored.
func TestClientAutoRetry(t *testing.T) {
	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{}, zkspeed.WithEntropy(zkspeed.SeededEntropy(12)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)

	var attempts atomic.Int32
	var rejectFirst int32 = 2
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= rejectFirst {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	circuit, _ := buildCircuit(t, 5, 9)
	ctx := context.Background()

	// Default client: overload surfaces immediately, no hidden retries.
	plain := client.New(flaky.URL, client.WithHTTPClient(flaky.Client()))
	var over *client.OverloadedError
	if _, err := plain.RegisterCircuit(ctx, circuit); !errors.As(err, &over) {
		t.Fatalf("without AutoRetry: %v, want OverloadedError", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("default client made %d attempts, want 1", got)
	}
	if over.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %s, want 1s", over.RetryAfter)
	}

	// Auto-retrying client: two rejections then success, 3 attempts total.
	attempts.Store(0)
	retrying := client.New(flaky.URL,
		client.WithHTTPClient(flaky.Client()),
		client.WithAutoRetry(3),
		client.WithRetryBackoff(time.Millisecond, 20*time.Millisecond))
	start := time.Now()
	if _, err := retrying.RegisterCircuit(ctx, circuit); err != nil {
		t.Fatalf("with AutoRetry: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("retrying client made %d attempts, want 3", got)
	}
	// Retry-After asked for 1s twice; the 20ms cap must have overridden it.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("retries took %s — backoff cap not applied", elapsed)
	}

	// Budget exhaustion: a permanently overloaded service still surfaces
	// the OverloadedError after max+1 attempts.
	attempts.Store(0)
	rejectFirst = 1 << 30
	if _, err := retrying.RegisterCircuit(ctx, circuit); !errors.As(err, &over) {
		t.Fatalf("exhausted retries: %v, want OverloadedError", err)
	}
	if got := attempts.Load(); got != 4 {
		t.Fatalf("exhausted client made %d attempts, want 4", got)
	}
}

func TestClientAutoRetryLargeAttemptCount(t *testing.T) {
	// A retry budget past ~32 attempts used to overflow the shifted
	// backoff into a negative duration and panic the jitter draw. The
	// floor now saturates at the cap, so a persistently overloaded server
	// just exhausts the budget.
	var attempts atomic.Int32
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	t.Cleanup(overloaded.Close)

	circuit, _ := buildCircuit(t, 6, 9)
	cl := client.New(overloaded.URL,
		client.WithHTTPClient(overloaded.Client()),
		client.WithAutoRetry(70),
		client.WithRetryBackoff(time.Nanosecond, time.Millisecond))
	var over *client.OverloadedError
	if _, err := cl.RegisterCircuit(context.Background(), circuit); !errors.As(err, &over) {
		t.Fatalf("got %v, want OverloadedError", err)
	}
	if got := attempts.Load(); got != 71 {
		t.Fatalf("made %d attempts, want 71", got)
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
