package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"zkspeed/api"
	"zkspeed/internal/store"
	"zkspeed/internal/tenant"
)

func openTestWAL(t *testing.T, dir string) *store.WAL {
	t.Helper()
	w, err := store.OpenWAL(store.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// copyDir snapshots the WAL directory — the moral equivalent of SIGKILL:
// whatever reached disk is what the next incarnation sees.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServiceCrashRecovery kills a durable service mid-batch (by
// snapshotting its WAL directory while jobs are in flight) and restarts
// from the snapshot: every acknowledged job must either resume under its
// original id or already be done, with proof bytes identical to the
// first incarnation's — zero acknowledged-job loss.
func TestServiceCrashRecovery(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	circuit, _ := buildCircuit(t, 3, 1)

	svc1 := newTestService(t, Config{Store: openTestWAL(t, dir1), BatchWindow: -1, MaxBatch: 1},
		&stubBackend{delay: 20 * time.Millisecond})
	entry := mustRegister(t, svc1, circuit)

	const n = 6
	jobs := make([]*job, n)
	for i := 0; i < n; i++ {
		_, assign := buildCircuit(t, 3, uint64(i+1))
		j, err := svc1.Submit(nil, entry, assign, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	// Let a prefix complete so the snapshot holds every record type:
	// done results and pending submits.
	<-jobs[0].done
	<-jobs[1].done
	copyDir(t, dir1, dir2) // "SIGKILL": disk state at this instant

	firstProofs := make(map[string][]byte, n)
	for _, j := range jobs {
		<-j.done
		resp := j.response()
		if resp.Status != api.StatusDone {
			t.Fatalf("job %s: %s (%s)", j.id, resp.Status, resp.Error)
		}
		firstProofs[j.id] = resp.Proof
	}

	// Restart from the snapshot.
	svc2 := newTestService(t, Config{Store: openTestWAL(t, dir2), BatchWindow: -1, MaxBatch: 1}, &stubBackend{})
	rec := svc2.Recovery()
	if !rec.Durable {
		t.Fatal("recovery not marked durable")
	}
	if rec.Circuits != 1 {
		t.Fatalf("recovered %d circuits, want 1", rec.Circuits)
	}
	if rec.Results+rec.Requeued != n || rec.Failures != 0 {
		t.Fatalf("recovery = %+v, want results+requeued = %d", rec, n)
	}
	if rec.Results < 2 {
		t.Fatalf("recovered %d results, want >= 2 (completed before the crash)", rec.Results)
	}
	if rec.Requeued == 0 {
		t.Fatal("no jobs re-queued — snapshot was taken too late")
	}
	for id, want := range firstProofs {
		j, ok := svc2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never reached a terminal state after restart", id)
		}
		resp := j.response()
		if resp.Status != api.StatusDone {
			t.Fatalf("job %s after restart: %s (%s)", id, resp.Status, resp.Error)
		}
		if !bytes.Equal(resp.Proof, want) {
			t.Fatalf("job %s: proof bytes differ across restart", id)
		}
	}
	// New submissions must not collide with recovered ids.
	_, assign := buildCircuit(t, 3, 99)
	entry2, ok := svc2.Circuit(entry.digest)
	if !ok {
		t.Fatal("circuit not re-registered")
	}
	j, err := svc2.Submit(nil, entry2, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := firstProofs[j.id]; dup {
		t.Fatalf("new job reused recovered id %s", j.id)
	}
	<-j.done
}

// TestShutdownDrainsToStore: Close on a durable service fails queued
// jobs in-memory with a retryable error but leaves them pending in the
// store, so the next incarnation re-queues them — the drain-to-store
// half of the no-silent-abandonment contract.
func TestShutdownDrainsToStore(t *testing.T) {
	dir := t.TempDir()
	circuit, _ := buildCircuit(t, 5, 1)

	w := openTestWAL(t, dir)
	svc, err := New(Config{Store: w, BatchWindow: -1, MaxBatch: 1, QueueCapacity: 16},
		&stubBackend{delay: 50 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	entry, err := svc.RegisterCircuit(circuit)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	jobs := make([]*job, n)
	for i := 0; i < n; i++ {
		_, assign := buildCircuit(t, 5, uint64(i+1))
		if jobs[i], err = svc.Submit(nil, entry, assign, nil); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	requeueable := 0
	for _, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %s left without a terminal response after Close", j.id)
		}
		if j.failedRetryable() {
			requeueable++
		} else if j.response().Status != api.StatusDone {
			t.Fatalf("job %s: %+v", j.id, j.response())
		}
	}
	if requeueable == 0 {
		t.Skip("every job finished before Close — nothing to drain (slow machine)")
	}

	svc2 := newTestService(t, Config{Store: openTestWAL(t, dir), BatchWindow: -1}, &stubBackend{})
	if got := svc2.Recovery().Requeued; got != requeueable {
		t.Fatalf("re-queued %d, want %d", got, requeueable)
	}
	for _, j := range jobs {
		j2, ok := svc2.Job(j.id)
		if !ok {
			t.Fatalf("job %s lost", j.id)
		}
		select {
		case <-j2.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s never resumed", j.id)
		}
		if resp := j2.response(); resp.Status != api.StatusDone {
			t.Fatalf("job %s after resume: %s (%s)", j.id, resp.Status, resp.Error)
		}
	}
}

// TestShutdownVolatileFailsTerminally: without a durable store, Close
// must still leave every queued job with a terminal (retryable) response
// — never a silently vanished id.
func TestShutdownVolatileFailsTerminally(t *testing.T) {
	svc, err := New(Config{BatchWindow: -1, MaxBatch: 1}, &stubBackend{delay: 50 * time.Millisecond}, 1)
	if err != nil {
		t.Fatal(err)
	}
	circuit, _ := buildCircuit(t, 7, 1)
	entry, err := svc.RegisterCircuit(circuit)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*job, 4)
	for i := range jobs {
		_, assign := buildCircuit(t, 7, uint64(i+1))
		if jobs[i], err = svc.Submit(nil, entry, assign, nil); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()
	for _, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %s abandoned without a terminal response", j.id)
		}
		resp := j.response()
		if resp.Status == api.StatusFailed && !resp.Retryable {
			t.Fatalf("job %s failed non-retryably on shutdown: %s", j.id, resp.Error)
		}
	}
}

// percentile returns the p-th percentile of ds (p in [0,1]).
func percentile(ds []time.Duration, p float64) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(p * float64(len(ds)-1))
	return ds[idx]
}

// TestFairShareIsolation is the fair-share load test: a tenant
// saturating the queue must not push a quota-respecting tenant's p95
// latency beyond 2× its solo baseline. Without DRR the victim's jobs
// would wait behind the flooder's entire backlog (~100× solo).
func TestFairShareIsolation(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.Config{
		{ID: "flooder", Key: "kf"},
		{ID: "victim", Key: "kv"},
	})
	if err != nil {
		t.Fatal(err)
	}
	const delay = 5 * time.Millisecond
	newSvc := func() *Service {
		return newTestService(t, Config{
			BatchWindow:   -1,
			MaxBatch:      1,
			QueueCapacity: 512,
			Tenants:       reg,
		}, &stubBackend{delay: delay})
	}
	victim, _ := reg.ByID("victim")
	flooder, _ := reg.ByID("flooder")

	measure := func(svc *Service, entry *circuitEntry, rounds int) []time.Duration {
		var out []time.Duration
		for i := 0; i < rounds; i++ {
			_, assign := buildCircuit(t, 11, uint64(1000+i))
			t0 := time.Now()
			j, err := svc.Submit(victim, entry, assign, nil)
			if err != nil {
				t.Fatal(err)
			}
			<-j.done
			out = append(out, time.Since(t0))
		}
		return out
	}

	const rounds = 12
	// Solo baseline: the victim alone on an idle service.
	svcSolo := newSvc()
	circuit, _ := buildCircuit(t, 11, 1)
	soloP95 := percentile(measure(svcSolo, mustRegister(t, svcSolo, circuit), rounds), 0.95)

	// Contended: the flooder keeps the queue saturated with its own
	// circuit's jobs while the victim submits at its steady pace. The
	// backlog must outlast the whole measurement — if it drains, the
	// later rounds silently measure solo latency and the test proves
	// nothing (which is exactly how a starvation bug once hid here).
	svcCont := newSvc()
	entryV := mustRegister(t, svcCont, circuit)
	floodCircuit, _ := buildCircuit(t, 13, 1)
	entryF := mustRegister(t, svcCont, floodCircuit)
	for i := 0; i < 400; i++ {
		_, fa := buildCircuit(t, 13, uint64(2000+i))
		if _, err := svcCont.Submit(flooder, entryF, fa, nil); err != nil {
			t.Fatal(err)
		}
	}
	contendedP95 := percentile(measure(svcCont, entryV, rounds), 0.95)
	if depth := svcCont.QueueDepth(); depth == 0 {
		t.Fatal("flooder backlog drained during measurement — contended numbers are meaningless")
	}

	// 2× solo plus a scheduling-jitter floor: one flooder job is always
	// mid-prove when the victim arrives, and CI timers wobble.
	limit := 2*soloP95 + 4*delay
	if contendedP95 > limit {
		t.Fatalf("victim p95 %v under contention exceeds limit %v (solo %v) — fair share not isolating",
			contendedP95, limit, soloP95)
	}
	t.Logf("victim p95: solo %v, contended %v (limit %v)", soloP95, contendedP95, limit)
}

// TestHTTPAuthMatrix exercises the 401/403/429/413 tenant error matrix
// and the API-key header forms end to end through the handler.
func TestHTTPAuthMatrix(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.Config{
		{ID: "acme", Key: "sk-acme", MaxWitnessBytes: 1 << 20},
		{ID: "off", Key: "sk-off", Disabled: true},
		{ID: "slow", Key: "sk-slow", RequestsPerSec: 0.001, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Config{Tenants: reg})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path string, hdr map[string]string) (*http.Response, api.Error) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e api.Error
		decodeInto(t, resp, &e)
		return resp, e
	}

	// No key → 401 unauthorized.
	resp, e := get("/v1/jobs/job-000001", nil)
	if resp.StatusCode != http.StatusUnauthorized || e.Code != api.ErrCodeUnauthorized {
		t.Fatalf("no key: %d %q", resp.StatusCode, e.Code)
	}
	// Unknown key → 401.
	resp, e = get("/v1/jobs/job-000001", map[string]string{"X-API-Key": "nope"})
	if resp.StatusCode != http.StatusUnauthorized || e.Code != api.ErrCodeUnauthorized {
		t.Fatalf("unknown key: %d %q", resp.StatusCode, e.Code)
	}
	// Disabled key → 403 key_disabled.
	resp, e = get("/v1/jobs/job-000001", map[string]string{"Authorization": "Bearer sk-off"})
	if resp.StatusCode != http.StatusForbidden || e.Code != api.ErrCodeKeyDisabled {
		t.Fatalf("disabled key: %d %q", resp.StatusCode, e.Code)
	}
	// Valid key, missing job → 404 (auth passed).
	resp, _ = get("/v1/jobs/job-000001", map[string]string{"Authorization": "Bearer sk-acme"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("valid key: %d, want 404", resp.StatusCode)
	}
	// Rate-limited tenant: first request spends the burst, second is 429
	// quota_rate with Retry-After.
	if resp, _ = get("/v1/jobs/job-000001", map[string]string{"X-API-Key": "sk-slow"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("rate burst: %d, want 404", resp.StatusCode)
	}
	resp, e = get("/v1/jobs/job-000001", map[string]string{"X-API-Key": "sk-slow"})
	if resp.StatusCode != http.StatusTooManyRequests || e.Code != api.ErrCodeQuotaRate {
		t.Fatalf("rate quota: %d %q", resp.StatusCode, e.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota_rate response missing Retry-After")
	}
	// Probes stay open without a key (non-JSON bodies, so raw GETs).
	for _, path := range []string{"/healthz", "/metrics"} {
		raw, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw.Body.Close()
		if raw.StatusCode != http.StatusOK {
			t.Fatalf("%s behind auth: %d", path, raw.StatusCode)
		}
	}
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		return
	}
	if err := json.Unmarshal(buf.Bytes(), v); err != nil {
		t.Fatalf("decoding %q: %v", buf.String(), err)
	}
}

// TestProveStreamEndpoint drives POST /v1/prove_stream on a durable
// service: the raw ZKSW body must stream into the WAL and prove, and a
// malformed body must answer 400 without leaving orphan records.
func TestProveStreamEndpoint(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, Config{Store: openTestWAL(t, dir), BatchWindow: -1}, &stubBackend{})
	circuit, assign := buildCircuit(t, 17, 5)
	entry := mustRegister(t, svc, circuit)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	witness, err := assign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	digestHex := fmt.Sprintf("%x", entry.digest[:])
	url := ts.URL + "/v1/prove_stream?circuit_digest=" + digestHex + "&wait=true"
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(witness))
	if err != nil {
		t.Fatal(err)
	}
	var pr api.ProveResponse
	decodeInto(t, resp, &pr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || pr.Status != api.StatusDone {
		t.Fatalf("prove_stream: %d %+v", resp.StatusCode, pr)
	}
	if len(pr.Proof) == 0 {
		t.Fatal("prove_stream returned no proof")
	}
	// Malformed body → 400, and the aborted upload leaves nothing pending.
	resp, err = http.Post(url, "application/octet-stream", strings.NewReader("not a witness"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed stream: %d, want 400", resp.StatusCode)
	}
	if got := len(svc.store.State().Pending); got != 0 {
		t.Fatalf("%d orphan pending jobs after failed stream", got)
	}

	// The streamed job must be durable: restart and poll the same id.
	svc.Close()
	svc2 := newTestService(t, Config{Store: openTestWAL(t, dir), BatchWindow: -1}, &stubBackend{})
	j, ok := svc2.Job(pr.JobID)
	if !ok {
		t.Fatalf("streamed job %s not recovered", pr.JobID)
	}
	<-j.done
	if got := j.response(); got.Status != api.StatusDone || !bytes.Equal(got.Proof, pr.Proof) {
		t.Fatalf("streamed job after restart: %+v", got)
	}
}
