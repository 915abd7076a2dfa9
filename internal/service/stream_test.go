package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"zkspeed/api"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/store"
	"zkspeed/internal/tenant"
	"zkspeed/internal/workload"
)

// hookStore is a WAL whose witness writers can be made to fail on Write
// or on Close, or to run afterClose once their chunks are in the log,
// and whose PutCircuit, Submit and Finish can be made to fail.
type hookStore struct {
	*store.WAL
	writeErr, closeErr, putErr, submitErr, finishErr error
	afterClose                                       func()
}

func (s *hookStore) PutCircuit(digest [32]byte, blob []byte) error {
	if s.putErr != nil {
		return s.putErr
	}
	return s.WAL.PutCircuit(digest, blob)
}

func (s *hookStore) Submit(rec store.JobRecord) error {
	if s.submitErr != nil {
		return s.submitErr
	}
	return s.WAL.Submit(rec)
}

func (s *hookStore) Finish(done []store.Result, failed []store.Failure) error {
	if s.finishErr != nil {
		return s.finishErr
	}
	return s.WAL.Finish(done, failed)
}

func (s *hookStore) WitnessWriter(id string) (io.WriteCloser, error) {
	ww, err := s.WAL.WitnessWriter(id)
	if err != nil {
		return nil, err
	}
	return hookWriter{WriteCloser: ww, s: s}, nil
}

type hookWriter struct {
	io.WriteCloser
	s *hookStore
}

func (w hookWriter) Write(p []byte) (int, error) {
	if w.s.writeErr != nil {
		return 0, w.s.writeErr
	}
	return w.WriteCloser.Write(p)
}

func (w hookWriter) Close() error {
	if w.s.closeErr != nil {
		return w.s.closeErr
	}
	if err := w.WriteCloser.Close(); err != nil {
		return err
	}
	if w.s.afterClose != nil {
		w.s.afterClose()
	}
	return nil
}

// syntheticWitness returns a synthetic circuit of 2^mu gates and the ZKSW
// bytes of its witness.
func syntheticWitness(t *testing.T, mu int) (*hyperplonk.Circuit, *hyperplonk.Assignment, []byte) {
	t.Helper()
	circuit, assign, _, err := workload.SyntheticSeed(mu, int64(mu))
	if err != nil {
		t.Fatal(err)
	}
	witness, err := assign.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return circuit, assign, witness
}

// postStream sends witness as the raw body of POST /v1/prove_stream and
// decodes the response.
func postStream(t *testing.T, ts *httptest.Server, entry *circuitEntry, witness []byte, wait bool) (int, api.ProveResponse) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/prove_stream?circuit_digest=%x&wait=%v", ts.URL, entry.digest[:], wait)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(witness))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr api.ProveResponse
	decodeInto(t, resp, &pr)
	return resp.StatusCode, pr
}

// TestProveStreamCostsNoExtraSync sends one witness through
// POST /v1/prove_stream and then through /v1/prove on a durable service.
// The streamed request may append at most one chunk record per 64 KiB of
// witness more than the JSON request, and no fsync more: chunk records
// become durable with the submit record that adopts them. The JSON
// request costs two records, its submit and its completion, and one
// fsync for each.
func TestProveStreamCostsNoExtraSync(t *testing.T) {
	for _, mu := range []int{8, 12} {
		t.Run(fmt.Sprintf("mu%d", mu), func(t *testing.T) {
			wal := openTestWAL(t, t.TempDir())
			svc := newTestService(t, Config{Store: wal, BatchWindow: -1, CacheSize: -1}, &stubBackend{})
			circuit, _, witness := syntheticWitness(t, mu)
			entry := mustRegister(t, svc, circuit)
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()

			before := wal.Stats()
			if code, pr := postStream(t, ts, entry, witness, true); code != http.StatusOK || pr.Status != api.StatusDone {
				t.Fatalf("prove_stream: %d %+v", code, pr)
			}
			mid := wal.Stats()
			var pr api.ProveResponse
			req := api.ProveRequest{CircuitDigest: fmt.Sprintf("%x", entry.digest[:]), Witness: witness, Wait: true}
			if resp := postJSON(t, ts, "/v1/prove", req, &pr); resp.StatusCode != http.StatusOK || pr.Status != api.StatusDone {
				t.Fatalf("prove: %d %+v", resp.StatusCode, pr)
			}
			after := wal.Stats()

			streamAppends, jsonAppends := mid.Appends-before.Appends, after.Appends-mid.Appends
			streamSyncs, jsonSyncs := mid.Syncs-before.Syncs, after.Syncs-mid.Syncs
			chunks := int64((len(witness) + 64<<10 - 1) / (64 << 10))
			t.Logf("%d B witness: stream %d appends / %d syncs, json %d / %d",
				len(witness), streamAppends, streamSyncs, jsonAppends, jsonSyncs)
			if streamSyncs != jsonSyncs {
				t.Errorf("streamed request fsynced %d times, JSON request %d", streamSyncs, jsonSyncs)
			}
			if jsonAppends != 2 || jsonSyncs != 2 {
				t.Errorf("JSON request cost %d appends and %d fsyncs, want 2 and 2 (submit, complete)", jsonAppends, jsonSyncs)
			}
			if streamAppends > jsonAppends+chunks {
				t.Errorf("streamed request appended %d records, want <= %d (JSON's %d + %d chunks)",
					streamAppends, jsonAppends+chunks, jsonAppends, chunks)
			}
		})
	}
}

// TestProveStreamStoreFailure: a store that fails while a witness
// streams in answers 503, not the 400 of a malformed witness, leaves no
// pending job, and leaves a log that reopens cleanly.
func TestProveStreamStoreFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		hs   hookStore
	}{
		{"write", hookStore{writeErr: fmt.Errorf("store: append: %w", syscall.ENOSPC)}},
		{"close", hookStore{closeErr: store.ErrClosed}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			hs := tc.hs
			hs.WAL = openTestWAL(t, dir)
			svc := newTestService(t, Config{Store: &hs, BatchWindow: -1}, &stubBackend{})
			circuit, _, witness := syntheticWitness(t, 8)
			entry := mustRegister(t, svc, circuit)
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()

			if code, pr := postStream(t, ts, entry, witness, true); code != http.StatusServiceUnavailable {
				t.Fatalf("store failure answered %d %+v, want 503", code, pr)
			}
			if n := len(hs.State().Pending); n != 0 {
				t.Fatalf("%d pending jobs after a failed upload", n)
			}
			if d := svc.QueueDepth(); d != 0 {
				t.Fatalf("%d queued jobs after a failed upload", d)
			}
			svc.Close()
			w, err := store.OpenWAL(store.WALConfig{Dir: dir})
			if err != nil {
				t.Fatalf("log does not reopen after a failed upload: %v", err)
			}
			defer w.Close()
			if n := len(w.State().Pending); n != 0 {
				t.Fatalf("%d pending jobs replayed after a failed upload", n)
			}
		})
	}
}

// TestRegisterStoreFailure: a store that cannot record a circuit answers
// POST /v1/circuits 503, as a failed submit does, not the 507 of a full
// registry, and the circuit stays unregistered.
func TestRegisterStoreFailure(t *testing.T) {
	hs := &hookStore{WAL: openTestWAL(t, t.TempDir()), putErr: fmt.Errorf("store: append: %w", syscall.ENOSPC)}
	svc := newTestService(t, Config{Store: hs, BatchWindow: -1}, &stubBackend{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	circuit, _ := buildCircuit(t, 3, 7)
	cb, err := circuit.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if resp := postJSON(t, ts, "/v1/circuits", api.RegisterCircuitRequest{Circuit: cb}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("register: %d, want 503", resp.StatusCode)
	}
	if _, ok := svc.Circuit(circuit.Digest()); ok || svc.circuitCount() != 0 {
		t.Fatalf("registry holds %d circuits after a failed registration", svc.circuitCount())
	}
	if n := len(hs.State().Circuits); n != 0 {
		t.Fatalf("store holds %d circuits after a failed registration", n)
	}
}

// TestFinishStoreFailure: a batch whose terminal records the store cannot
// write answers its waiting caller 503, retryable, and caches nothing, so
// the same request is proved again rather than answered from the cache.
// The jobs stay pending in the log, and a reopened log replays them.
func TestFinishStoreFailure(t *testing.T) {
	dir := t.TempDir()
	hs := &hookStore{WAL: openTestWAL(t, dir), finishErr: fmt.Errorf("store: sync: %w", syscall.ENOSPC)}
	stub := &stubBackend{}
	svc := newTestService(t, Config{Store: hs, BatchWindow: -1}, stub)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	req := proveRequest(t, svc, 3, 7, true)

	var ids []string
	for attempt := range 2 {
		var pr api.ProveResponse
		if resp := postJSON(t, ts, "/v1/prove", req, &pr); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("attempt %d: %d (%s), want 503", attempt, resp.StatusCode, pr.Status)
		}
		if pr.Status != api.StatusFailed || !pr.Retryable || pr.Cached {
			t.Fatalf("attempt %d: status %s, retryable %v, cached %v; want a retryable failure", attempt, pr.Status, pr.Retryable, pr.Cached)
		}
		ids = append(ids, pr.JobID)
	}
	if st := stub.Stats(); st.Proofs != 2 {
		t.Fatalf("backend proved %d times, want 2: the repeat was served from the cache", st.Proofs)
	}
	svc.Close()
	w, err := store.OpenWAL(store.WALConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st := w.State()
	pending := map[string]bool{}
	for _, rec := range st.Pending {
		pending[rec.ID] = true
	}
	for _, id := range ids {
		if !pending[id] {
			t.Errorf("job %s is not pending in the reopened log (%d pending, %d done)", id, len(st.Pending), len(st.Done))
		}
	}
}

// TestSubmitStoreFailure: a store that cannot record a submit answers
// POST /v1/prove 503, queues nothing and returns the tenant's in-flight
// slot.
func TestSubmitStoreFailure(t *testing.T) {
	reg, err := tenant.NewRegistry([]tenant.Config{{ID: "a", Key: "ka", MaxInflight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hs := &hookStore{WAL: openTestWAL(t, t.TempDir()), submitErr: fmt.Errorf("store: append: %w", syscall.ENOSPC)}
	svc := newTestService(t, Config{Store: hs, BatchWindow: -1, Tenants: reg}, &stubBackend{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	blob, err := json.Marshal(proveRequest(t, svc, 3, 7, true))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/prove", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer ka")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed submit answered %d, want 503", resp.StatusCode)
	}
	if d := svc.QueueDepth(); d != 0 {
		t.Fatalf("%d queued jobs after a failed submit", d)
	}
	a, _ := reg.ByID("a")
	if n := a.Stats().Inflight; n != 0 {
		t.Fatalf("tenant holds %d in-flight slots after a failed submit, want 0", n)
	}
	if n := len(hs.State().Pending); n != 0 {
		t.Fatalf("%d pending jobs after a failed submit", n)
	}
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestProveStreamCrashBeforeSubmit snapshots the WAL directory once every
// chunk of a streamed witness is in the log but before the submit that
// adopts them: the unsynced chunks belong to no acknowledged job, so the
// snapshot reopens without error and without a pending job.
func TestProveStreamCrashBeforeSubmit(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	hs := &hookStore{WAL: openTestWAL(t, dir1)}
	hs.afterClose = func() { copyDir(t, dir1, dir2) }
	svc := newTestService(t, Config{Store: hs, BatchWindow: -1}, &stubBackend{})
	circuit, _, witness := syntheticWitness(t, 10)
	entry := mustRegister(t, svc, circuit)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if code, pr := postStream(t, ts, entry, witness, true); code != http.StatusOK || pr.Status != api.StatusDone {
		t.Fatalf("prove_stream: %d %+v", code, pr)
	}
	if got := dirBytes(t, dir2); got < int64(len(witness)) {
		t.Fatalf("snapshot holds %d bytes, less than the %d B witness: taken before the chunks", got, len(witness))
	}
	w, err := store.OpenWAL(store.WALConfig{Dir: dir2})
	if err != nil {
		t.Fatalf("reopening after a crash before submit: %v", err)
	}
	defer w.Close()
	if st := w.State(); len(st.Pending) != 0 || len(st.Done) != 0 {
		t.Fatalf("crash before submit replayed %d pending / %d done jobs, want none", len(st.Pending), len(st.Done))
	}
}

// TestProveStreamCrashAfterSubmit snapshots the WAL directory as soon as a
// streamed submit is acknowledged: the job recovers under its id with a
// byte-identical witness.
func TestProveStreamCrashAfterSubmit(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	svc := newTestService(t, Config{Store: openTestWAL(t, dir1), BatchWindow: -1},
		&stubBackend{delay: 200 * time.Millisecond})
	circuit, assign, witness := syntheticWitness(t, 10)
	entry := mustRegister(t, svc, circuit)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	code, pr := postStream(t, ts, entry, witness, false)
	if code != http.StatusAccepted {
		t.Fatalf("async prove_stream: %d %+v", code, pr)
	}
	copyDir(t, dir1, dir2) // "SIGKILL" right after the acknowledgement

	wal2 := openTestWAL(t, dir2)
	pending := wal2.State().Pending
	if len(pending) != 1 || pending[0].ID != pr.JobID {
		t.Fatalf("replay found %d pending jobs, want only the streamed job %s", len(pending), pr.JobID)
	}
	recovered := new(hyperplonk.Assignment)
	if err := recovered.UnmarshalBinary(pending[0].Witness); err != nil {
		t.Fatal(err)
	}
	if recovered.Digest() != assign.Digest() {
		t.Fatal("recovered witness differs from the streamed one")
	}
	svc2 := newTestService(t, Config{Store: wal2, BatchWindow: -1}, &stubBackend{})
	j, ok := svc2.Job(pr.JobID)
	if !ok {
		t.Fatalf("acknowledged streamed job %s not re-queued", pr.JobID)
	}
	<-j.done
	if resp := j.response(); resp.Status != api.StatusDone {
		t.Fatalf("recovered streamed job: %s (%s)", resp.Status, resp.Error)
	}
}
