package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"zkspeed/api"
	"zkspeed/internal/hyperplonk"
)

// waitAdmitting waits until n admissions are open.
func waitAdmitting(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.queue.Admitting() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d admissions open, want %d", s.queue.Admitting(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitPopped waits until a loop has taken every queued job.
func waitPopped(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("no loop popped the job")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitDone waits for a job's terminal response.
func waitDone(t *testing.T, j *job, within time.Duration) api.ProveResponse {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(within):
		t.Fatalf("job %s not done within %v", j.id, within)
	}
	return j.response()
}

// TestLoneJobIsNotHeld submits one job to an idle service whose window is
// 10 s. Nothing else is on its way, so the loop must prove it at once.
func TestLoneJobIsNotHeld(t *testing.T) {
	s := newTestService(t, Config{BatchWindow: 10 * time.Second})
	circuit, assign := buildCircuit(t, 3, 7)
	entry := mustRegister(t, s, circuit)
	j, err := s.Submit(nil, entry, assign, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := waitDone(t, j, time.Second); r.Status != api.StatusDone || r.BatchSize != 1 {
		t.Fatalf("lone job: %+v, want done in a batch of 1", r)
	}
}

// TestHoldWaitsForAdmission opens a same-circuit /v1/prove_stream upload
// whose body is still being written, then submits a job. The loop that
// pops the job must hold it for the upload: a complete upload joins the
// batch, a malformed one (400) releases the job at once.
func TestHoldWaitsForAdmission(t *testing.T) {
	for _, tc := range []struct {
		name      string
		malformed bool
	}{{"joins", false}, {"rejected", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestService(t, Config{BatchWindow: 10 * time.Second, MaxBatch: 8})
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			circuit, assigns := witnessesFor(t, 50, 2)
			entry := mustRegister(t, s, circuit)
			body, err := assigns[1].MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if tc.malformed {
				body = bytes.Repeat([]byte{0xff}, len(body))
			}

			pr, pw := io.Pipe()
			req, err := http.NewRequest(http.MethodPost,
				fmt.Sprintf("%s/v1/prove_stream?wait=true&circuit_digest=%x", srv.URL, entry.digest), pr)
			if err != nil {
				t.Fatal(err)
			}
			req.ContentLength = int64(len(body))
			type streamed struct {
				code int
				resp api.ProveResponse
				err  error
			}
			answered := make(chan streamed, 1)
			go func() {
				var out streamed
				resp, err := srv.Client().Do(req)
				if err != nil {
					out.err = err
				} else {
					defer resp.Body.Close()
					out.code = resp.StatusCode
					if resp.StatusCode == http.StatusOK {
						out.err = json.NewDecoder(resp.Body).Decode(&out.resp)
					}
				}
				answered <- out
			}()
			defer pw.Close()
			waitAdmitting(t, s, 1)

			j, err := s.Submit(nil, entry, assigns[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			waitPopped(t, s)
			select {
			case <-j.done:
				t.Fatal("job proved while a same-circuit upload was still arriving")
			case <-time.After(50 * time.Millisecond):
			}

			start := time.Now()
			// A malformed upload may be refused before all of it is read.
			if _, err := pw.Write(body); err != nil && !tc.malformed {
				t.Fatal(err)
			}
			pw.Close()
			r := waitDone(t, j, 5*time.Second)
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("job proved %v after the upload ended, want at once", elapsed)
			}
			got := <-answered
			if got.err != nil {
				t.Fatal(got.err)
			}
			if tc.malformed {
				if got.code != http.StatusBadRequest {
					t.Fatalf("malformed upload answered %d, want 400", got.code)
				}
				if r.Status != api.StatusDone || r.BatchSize != 1 {
					t.Fatalf("held job: %+v, want done in a batch of 1", r)
				}
				return
			}
			if got.code != http.StatusOK {
				t.Fatalf("upload answered %d, want 200", got.code)
			}
			if r.BatchSize != 2 || got.resp.BatchSize != 2 {
				t.Fatalf("batch sizes %d and %d, want both proved in one batch of 2", r.BatchSize, got.resp.BatchSize)
			}
		})
	}
}

// TestBatchHoldHistogram proves one unheld batch and one held open for
// 100 ms by an admission, and reads both off zkproverd_batch_hold_seconds.
func TestBatchHoldHistogram(t *testing.T) {
	s := newTestService(t, Config{BatchWindow: 10 * time.Second})
	circuit, assigns := witnessesFor(t, 51, 2)
	entry := mustRegister(t, s, circuit)
	j, err := s.Submit(nil, entry, assigns[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, time.Second)

	end := holdAdmission(s)
	if j, err = s.Submit(nil, entry, assigns[1], nil); err != nil {
		t.Fatal(err)
	}
	waitPopped(t, s)
	time.Sleep(100 * time.Millisecond)
	end()
	waitDone(t, j, 5*time.Second)

	var buf bytes.Buffer
	s.met.WritePrometheus(&buf, nil)
	text := buf.String()
	for _, want := range []string{
		"# TYPE zkproverd_batch_hold_seconds histogram",
		`zkproverd_batch_hold_seconds_bucket{le="0.05"} 1`, // the unheld batch only
		`zkproverd_batch_hold_seconds_bucket{le="+Inf"} 2`,
		"zkproverd_batch_hold_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n---\n%s", want, text)
		}
	}
	var sum float64
	if _, err := fmt.Sscanf(text[strings.Index(text, "zkproverd_batch_hold_seconds_sum"):],
		"zkproverd_batch_hold_seconds_sum %g", &sum); err != nil {
		t.Fatal(err)
	}
	if sum < 0.1 || sum > 5 {
		t.Fatalf("hold sum %gs, want the held batch's ≈ 0.1 s", sum)
	}
}

// sharedBatch proves assigns as one batch brought by two admissions (two
// Submits while a third admission holds the loop), which makes the loop
// hold its next batch of the circuit.
func sharedBatch(t *testing.T, s *Service, entry *circuitEntry, assigns ...*hyperplonk.Assignment) {
	t.Helper()
	end := holdAdmission(s)
	var jobs []*job
	for _, a := range assigns {
		j, err := s.Submit(nil, entry, a, nil)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	end()
	for _, j := range jobs {
		if r := waitDone(t, j, 5*time.Second); r.BatchSize != len(assigns) {
			t.Fatalf("shared batch: batch of %d, want %d", r.BatchSize, len(assigns))
		}
	}
}

// timedSubmit submits one job and returns it with its submit time.
func timedSubmit(t *testing.T, s *Service, entry *circuitEntry, a *hyperplonk.Assignment) (*job, time.Time) {
	t.Helper()
	start := time.Now()
	j, err := s.Submit(nil, entry, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	return j, start
}

// TestSharedBatchHoldsTheNext proves a batch of two, then submits one job
// with no admission open and a second 50 ms later. Clients that shared a
// batch come back a few milliseconds apart, so the loop holds the next
// batch for the whole window even with nothing being admitted, and the
// two share it. A held batch that meets nobody ends the rule: the next
// lone job proves at once.
func TestSharedBatchHoldsTheNext(t *testing.T) {
	const window = 500 * time.Millisecond
	s := newTestService(t, Config{BatchWindow: window, MaxBatch: 8})
	circuit, assigns := witnessesFor(t, 52, 6)
	entry := mustRegister(t, s, circuit)
	sharedBatch(t, s, entry, assigns[0], assigns[1])

	j2, start := timedSubmit(t, s, entry, assigns[2])
	waitPopped(t, s)
	time.Sleep(50 * time.Millisecond)
	j3, _ := timedSubmit(t, s, entry, assigns[3])
	for _, j := range []*job{j2, j3} {
		if r := waitDone(t, j, 5*time.Second); r.BatchSize != 2 {
			t.Fatalf("second pair: batch of %d, want 2", r.BatchSize)
		}
	}
	if held := time.Since(start); held < window {
		t.Fatalf("second pair proved %v after the first job, want the whole %v window", held, window)
	}

	// The pair came by two admissions, so the next batch is held too; it
	// meets nobody, which ends the rule.
	j4, start := timedSubmit(t, s, entry, assigns[4])
	if r := waitDone(t, j4, 5*time.Second); r.BatchSize != 1 || time.Since(start) < window {
		t.Fatalf("job after the pair: batch of %d after %v, want 1 after the %v window", r.BatchSize, time.Since(start), window)
	}
	j5, start := timedSubmit(t, s, entry, assigns[5])
	if r := waitDone(t, j5, 5*time.Second); r.BatchSize != 1 || time.Since(start) > window/2 {
		t.Fatalf("lone job: batch of %d after %v, want 1 at once", r.BatchSize, time.Since(start))
	}
}

// TestBatchCallerAfterSharedBatch follows a shared batch with one caller
// sending /v1/prove_batch requests one after another. Its first request
// meets the hold the shared batch left; the rest are one admission each
// and are not held, nor is a request whose statements fill two batches.
func TestBatchCallerAfterSharedBatch(t *testing.T) {
	const window = 500 * time.Millisecond
	s := newTestService(t, Config{BatchWindow: window, MaxBatch: 4})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	circuit, assigns := witnessesFor(t, 53, 12)
	entry := mustRegister(t, s, circuit)
	sharedBatch(t, s, entry, assigns[0], assigns[1])

	proveBatch := func(statements []*hyperplonk.Assignment) (time.Duration, []int) {
		t.Helper()
		req := api.ProveBatchRequest{CircuitDigest: fmt.Sprintf("%x", entry.digest)}
		for _, a := range statements {
			blob, err := a.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			req.Witnesses = append(req.Witnesses, blob)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		resp, err := srv.Client().Post(srv.URL+"/v1/prove_batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out api.ProveBatchResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prove_batch answered %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		var sizes []int
		for _, r := range out.Results {
			sizes = append(sizes, r.BatchSize)
		}
		return took, sizes
	}
	if took, sizes := proveBatch(assigns[2:4]); took < window || fmt.Sprint(sizes) != "[2 2]" {
		t.Fatalf("first request after the shared batch: batch sizes %v after %v, want [2 2] after the %v window", sizes, took, window)
	}
	if took, sizes := proveBatch(assigns[4:6]); took > window/2 || fmt.Sprint(sizes) != "[2 2]" {
		t.Fatalf("second request: batch sizes %v after %v, want [2 2] at once", sizes, took)
	}
	if took, sizes := proveBatch(assigns[6:12]); took > window/2 || fmt.Sprint(sizes) != "[4 4 4 4 2 2]" {
		t.Fatalf("six statements: batch sizes %v after %v, want [4 4 4 4 2 2] at once", sizes, took)
	}
}

// TestOtherCircuitsAreNotHeld queues jobs of a second circuit while a
// loop holds a batch of the first for an admission: they stay queued,
// and prove at once when it ends. A hold left by a shared batch of one
// circuit does not hold a batch of another.
func TestOtherCircuitsAreNotHeld(t *testing.T) {
	const window = 500 * time.Millisecond
	s := newTestService(t, Config{BatchWindow: window, MaxBatch: 8})
	circuitA, assignsA := witnessesFor(t, 54, 3)
	circuitB, assignsB := witnessesFor(t, 55, 3)
	entryA := mustRegister(t, s, circuitA)
	entryB := mustRegister(t, s, circuitB)

	end := holdAdmission(s)
	a0, _ := timedSubmit(t, s, entryA, assignsA[0])
	waitPopped(t, s)
	b0, _ := timedSubmit(t, s, entryB, assignsB[0])
	b1, _ := timedSubmit(t, s, entryB, assignsB[1])
	time.Sleep(50 * time.Millisecond)
	if d := s.QueueDepth(); d != 2 {
		t.Fatalf("queue depth %d while the first circuit's batch is held, want its 2 other-circuit jobs", d)
	}
	select {
	case <-a0.done:
		t.Fatal("batch proved while an admission was open")
	default:
	}
	released := time.Now()
	end()
	if r := waitDone(t, a0, 5*time.Second); r.BatchSize != 1 {
		t.Fatalf("held job: batch of %d, want 1", r.BatchSize)
	}
	for _, j := range []*job{b0, b1} {
		if r := waitDone(t, j, 5*time.Second); r.BatchSize != 2 {
			t.Fatalf("other circuit: batch of %d, want its 2 queued jobs", r.BatchSize)
		}
	}
	if took := time.Since(released); took > window/2 {
		t.Fatalf("both batches proved %v after the admission ended, want at once", took)
	}

	sharedBatch(t, s, entryA, assignsA[1], assignsA[2])
	b2, start := timedSubmit(t, s, entryB, assignsB[2])
	if r := waitDone(t, b2, 5*time.Second); r.BatchSize != 1 || time.Since(start) > window/2 {
		t.Fatalf("other circuit after a shared batch: batch of %d after %v, want 1 at once", r.BatchSize, time.Since(start))
	}
}

// TestFirstBatchWaitsAsLongAsItsSetup proves a circuit's first job on a
// backend whose setup takes 200 ms. The loop sets the circuit up before
// it closes the batch, then waits as long again: a job submitted just
// after the setup joins it. The circuit's next lone job is not held.
func TestFirstBatchWaitsAsLongAsItsSetup(t *testing.T) {
	const setup = 200 * time.Millisecond
	s := newTestService(t, Config{BatchWindow: time.Second, MaxBatch: 8}, &stubBackend{setup: setup})
	circuit, assigns := witnessesFor(t, 56, 4)
	entry := mustRegister(t, s, circuit)

	j0, start := timedSubmit(t, s, entry, assigns[0])
	waitPopped(t, s)
	time.Sleep(setup + setup/4)
	j1, _ := timedSubmit(t, s, entry, assigns[1])
	for _, j := range []*job{j0, j1} {
		if r := waitDone(t, j, 5*time.Second); r.BatchSize != 2 {
			t.Fatalf("first batch: batch of %d, want 2", r.BatchSize)
		}
	}
	if took := time.Since(start); took < 2*setup || took > 2*time.Second {
		t.Fatalf("first batch proved after %v, want its %v setup and as long again", took, setup)
	}

	// The first batch met two submitters and holds the next; a held batch
	// that meets nobody ends that.
	j2, _ := timedSubmit(t, s, entry, assigns[2])
	waitDone(t, j2, 5*time.Second)
	j3, start := timedSubmit(t, s, entry, assigns[3])
	if r := waitDone(t, j3, 5*time.Second); r.BatchSize != 1 || time.Since(start) > time.Second {
		t.Fatalf("set-up circuit's lone job: batch of %d after %v, want 1 at once", r.BatchSize, time.Since(start))
	}
}
