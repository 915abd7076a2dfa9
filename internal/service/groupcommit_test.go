package service

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"zkspeed/api"
	"zkspeed/internal/hyperplonk"
)

// rejectBackend is a stubBackend that rejects one assignment, as a prover
// rejects an unsatisfied witness.
type rejectBackend struct {
	*stubBackend
	reject *hyperplonk.Assignment
}

func (b rejectBackend) ProveBatch(ctx context.Context, jobs []BackendJob) []BackendResult {
	out := b.stubBackend.ProveBatch(ctx, jobs)
	for i, j := range jobs {
		if j.Assignment == b.reject {
			out[i] = BackendResult{Err: errors.New("unsatisfied witness")}
		}
	}
	return out
}

// TestBatchRecordsShareOneSync proves one batch of n jobs on a WAL-backed
// service, one of them rejected by the prover. The batch's n terminal
// records must cost one fsync together, and no answer may go out before
// all of them are written: a crash snapshot taken as soon as the first
// answer is out replays every done and fail record of the batch.
func TestBatchRecordsShareOneSync(t *testing.T) {
	dir, crash := t.TempDir(), t.TempDir()
	w := openTestWAL(t, dir)
	circuit, _ := buildCircuit(t, 3, 1)
	const n = 5
	assigns := make([]*hyperplonk.Assignment, n)
	for i := range assigns {
		_, assigns[i] = buildCircuit(t, 3, uint64(i+1))
	}
	s := newTestService(t, Config{Store: w, BatchWindow: 10 * time.Second},
		rejectBackend{&stubBackend{}, assigns[n-1]})
	entry := mustRegister(t, s, circuit)

	// An open admission holds the first job's batch until every job is
	// queued behind it.
	end := holdAdmission(s)
	jobs := make([]*job, n)
	for i, a := range assigns {
		j, err := s.Submit(nil, entry, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	before := w.Stats()
	end()
	select {
	case <-jobs[0].done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch never finished")
	}
	copyDir(t, dir, crash) // "SIGKILL" as soon as the first answer is out
	for _, j := range jobs {
		<-j.done
	}
	after := w.Stats()
	if appends := after.Appends - before.Appends; appends != n {
		t.Fatalf("batch appended %d records, want %d (a terminal record per job)", appends, n)
	}
	if syncs := after.Syncs - before.Syncs; syncs != 1 {
		t.Fatalf("batch of %d fsynced %d times, want 1", n, syncs)
	}

	replayed := openTestWAL(t, crash)
	defer replayed.Close()
	st := replayed.State()
	if len(st.Pending) != 0 {
		t.Fatalf("crash snapshot replays %d pending jobs, want 0", len(st.Pending))
	}
	for i, j := range jobs {
		resp := j.response()
		if resp.BatchSize != n && resp.Status == api.StatusDone {
			t.Fatalf("job %d proved in a batch of %d, want %d", i, resp.BatchSize, n)
		}
		if i == n-1 {
			if resp.Status != api.StatusFailed {
				t.Fatalf("rejected job: %+v", resp)
			}
			if _, ok := st.Failed[j.id]; !ok {
				t.Fatalf("crash snapshot lost the fail record of %s", j.id)
			}
			continue
		}
		r, ok := st.Done[j.id]
		if !ok {
			t.Fatalf("crash snapshot lost the done record of %s", j.id)
		}
		if !bytes.Equal(r.Proof, resp.Proof) {
			t.Fatalf("job %s: replayed proof differs from the answer", j.id)
		}
	}
}

// TestCloseWithBatchInFlight closes a durable two-loop service while one
// loop is inside ProveBatch: Close must return, the job must get a
// retryable answer, and no goroutine the service started may outlive it.
func TestCloseWithBatchInFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	w := openTestWAL(t, t.TempDir())
	s, err := New(Config{Store: w, BatchWindow: -1}, &stubBackend{delay: time.Minute}, 2)
	if err != nil {
		t.Fatal(err)
	}
	circuit, assign := buildCircuit(t, 3, 1)
	entry := mustRegister(t, s, circuit)
	j, err := s.Submit(nil, entry, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); j.response().Status != api.StatusRunning; {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with a batch in flight")
	}
	select {
	case <-j.done:
	default:
		t.Fatal("in-flight job left without an answer after Close")
	}
	if !j.failedRetryable() {
		t.Fatalf("in-flight job after Close: %+v, want a retryable failure", j.response())
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
