package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"zkspeed"
	"zkspeed/client"
)

// served is one in-process proving service behind a loopback listener.
type served struct {
	svc    *zkspeed.ProverService
	server *http.Server
	exited chan struct{} // closed when the accept loop has returned
	dir    string        // its write-ahead log
	base   string
	digest string // the registered circuit
	http   *http.Client
}

// startService takes a service from nothing to ready to prove the
// circuit: one shard with the default batch window, proof cache and sync
// policy on a write-ahead log in a fresh directory, an HTTP listener,
// the circuit registered over the wire, and its ceremony and keys
// preloaded.
func startService(ctx context.Context, rc runConfig, t *tracer, c *zkspeed.Circuit) (*served, error) {
	id := fmt.Sprintf("setup-%d", len(t.perOp("setup")))
	root := t.begin("setup", id, 0)
	defer t.end(root)
	dir, err := os.MkdirTemp(rc.Dir, "wal-")
	if err != nil {
		return nil, err
	}
	svc, err := zkspeed.NewService(zkspeed.ServiceConfig{Shards: 1, StoreDir: dir}, rc.engineOptions()...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &served{svc: svc, dir: dir, exited: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.server = &http.Server{Handler: svc.Handler()}
	go func() {
		defer close(s.exited)
		s.server.Serve(ln) // returns ErrServerClosed from stop
	}()
	s.base = "http://" + ln.Addr().String()
	s.http = &http.Client{Transport: &http.Transport{}}
	t.call("service.register", id, root, 1, func() {
		s.digest, err = s.client().RegisterCircuit(ctx, c)
	})
	if err == nil {
		_, err = svc.Preload(ctx, c)
	}
	if err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *served) client() *client.Client {
	return client.New(s.base, client.WithHTTPClient(s.http))
}

// stop shuts the listener and the shard loops down, waits for the accept
// loop, and deletes the log.
func (s *served) stop() {
	s.http.CloseIdleConnections()
	s.server.Close()
	<-s.exited
	s.svc.Close()
	os.RemoveAll(s.dir)
}

// response is what one request of the timed phase came back with.
type response struct {
	kind       int
	ms         float64
	proverMS   float64
	cached     bool
	proofBytes int
}

// answer is a proof kept to be verified over the wire.
type answer struct {
	index  int
	proof  *zkspeed.Proof
	public []zkspeed.Scalar
}

// serveStats are the service-layer measurements of the timed phase, and
// of the concurrent burst a traced run sends after it.
type serveStats struct {
	responses  []response
	rejected   int
	burstBatch []float64 // the batch size each answer of the burst reports
}

func (sv *serveStats) metrics(v map[string]float64) {
	var overhead, cached, stream, json, all []float64
	for _, r := range sv.responses {
		all = append(all, r.ms)
		if r.cached {
			cached = append(cached, r.ms)
			continue
		}
		overhead = append(overhead, r.ms-r.proverMS)
		if r.kind == reqStream {
			stream = append(stream, r.ms)
		} else {
			json = append(json, r.ms)
		}
	}
	v["service.overhead_ms_p50"] = median(overhead)
	v["service.cached_ms_p50"] = median(cached)
	v["service.stream_ms_p50"] = median(stream)
	v["service.json_ms_p50"] = median(json)
	v["service.req_ms_p95"] = percentile(all, 95)
	v["service.cache_hit_ratio"] = float64(len(cached)) / float64(len(all))
	v["service.batch_size_mean"] = mean(sv.burstBatch)
	v["service.rejected"] = float64(sv.rejected)
}

// runServed is the untraced part of serve-mu8-mixed: one client in a closed
// loop, sending its next request when the previous answer is in. A traced
// run follows it with a burst from P clients at once.
func runServed(ctx context.Context, rc runConfig, t *tracer, m *meter, res *runResult) (*timed, statement, error) {
	mu := rc.mu()
	sched := requestSchedule(rc.Seed)
	first, err := chainStatement(mu, sched[0].Witness)
	if err != nil {
		return nil, statement{}, err
	}
	res.Digests = append(res.Digests, "circuit:"+digestHex(first.circuit.Digest()))
	tm := &timed{serve: &serveStats{}}

	s, err := startService(ctx, rc, t, first.circuit)
	if err != nil {
		return nil, statement{}, fmt.Errorf("set-up: %w", err)
	}
	defer s.stop()

	// send issues one request and checks the answer against the gate:
	// no refusal, the proof of a witness always the same bytes, a repeat
	// served from the cache.
	var kept []answer // 16 answers of the untimed requests, then every mixBlock-th
	cl := s.client()
	send := func(index int) {
		req := sched[index]
		st, err := chainStatement(mu, req.Witness)
		if err != nil {
			m.fail("request %d: %v", index, err)
			return
		}
		prove := cl.Prove
		if req.Kind == reqStream {
			prove = cl.ProveStream
		}
		began := time.Now()
		pr, err := prove(ctx, s.digest, st.assignment)
		ms := time.Since(began).Seconds() * 1e3
		m.ops++
		if err != nil {
			var over *client.OverloadedError
			if errors.As(err, &over) {
				tm.serve.rejected++
			}
			m.fail("request %d: %v", index, err)
			return
		}
		digest, size, err := proofDigest(pr.Proof)
		if err != nil {
			m.fail("request %d: %v", index, err)
			return
		}
		if m.sameProof(fmt.Sprintf("witness %d", req.Witness), digest) && index == 0 {
			res.Digests = append(res.Digests, "proof:"+digest)
		}
		if req.Kind == reqRepeat && !pr.Cached {
			m.fail("request %d repeats a witness but was not served from the cache", index)
		}
		if index < repeatDistance { // sent before the clock started
			if index%(repeatDistance/16) == 0 {
				kept = append(kept, answer{index, pr.Proof, pr.PublicInputs})
			}
			return
		}
		if index%mixBlock == 0 {
			kept = append(kept, answer{index, pr.Proof, pr.PublicInputs})
		}
		tm.serve.responses = append(tm.serve.responses, response{
			kind: req.Kind, ms: ms, proverMS: pr.ProverTime.Seconds() * 1e3,
			cached: pr.Cached, proofBytes: size,
		})
	}
	// verifyKept checks the kept answers with client.Verify, timed. It runs
	// once before and once after the timed phase: two windows some twenty
	// seconds apart, so that one burst of noise on the box cannot own all
	// the verification samples.
	verifyKept := func() {
		for _, a := range kept {
			m.ops++
			verifyStart := time.Now()
			err := cl.Verify(ctx, s.digest, a.public, a.proof)
			tm.verifyMS = append(tm.verifyMS, time.Since(verifyStart).Seconds()*1e3)
			if err != nil {
				m.fail("answer %d does not verify: %v", a.index, err)
			}
		}
		kept = kept[:0]
	}

	// The first repeatDistance requests go out before the clock starts:
	// they fill the window later repeats reach back into.
	for i := 0; i < repeatDistance; i++ {
		send(i)
	}
	verifyKept()

	// The timed phase: one client on one connection in a closed loop, each
	// request sent when the previous answer is in, so every batch is of one
	// and every fresh request meets an idle service. With a second client
	// the latency of a request depends on whether it shares a batch, waits
	// behind the other's or runs alone, the median sits between those
	// modes, and on a shared box it moved by a sixth between runs of the
	// same code. The loop runs whole blocks of the mix, so the request
	// shares are exact, until the minimum count is in and the time is up.
	//
	// After each block, off the clock, another service is started from
	// nothing next to the one under load and stopped again: set-up here
	// takes a tenth of a second, and samples spread over the whole run
	// give a median that a few seconds of noise on the box cannot own.
	var (
		before, after runtime.MemStats
		wall          time.Duration // the clock of the timed phase
		alloc         uint64
		rates         []float64 // valid answers per second of each block
		medians       []float64 // median fresh-request latency of each block
	)
	minEnd := repeatDistance + mixBlock*minCalls
	for i := repeatDistance; i+mixBlock <= len(sched) && (i < minEnd || wall < rc.budget()); i += mixBlock {
		runtime.ReadMemStats(&before)
		answered := len(tm.serve.responses)
		blockStart := time.Now()
		for j := i; j < i+mixBlock; j++ {
			send(j)
		}
		took := time.Since(blockStart)
		wall += took
		var fresh []float64
		for _, r := range tm.serve.responses[answered:] {
			if !r.cached {
				fresh = append(fresh, r.ms)
			}
		}
		rates = append(rates, float64(len(tm.serve.responses)-answered)/took.Seconds())
		medians = append(medians, median(fresh))
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
		if moreSetups(t.perOp("setup")) {
			extra, err := startService(ctx, rc, t, first.circuit)
			if err != nil {
				return nil, statement{}, fmt.Errorf("set-up: %w", err)
			}
			extra.stop()
		}
	}
	// Every block has the same mix, so blocks compare, and both figures are
	// those of the block a quarter of the way down from the best. A
	// neighbour on the box is busy for seconds at a time, which spoils whole
	// blocks and leaves the others clean; in a disturbed run up to half of
	// them are spoilt, and the median block is then one or the other. The
	// quartile block is a clean one, and on a quiet box within 3% of the
	// median block. The median over all requests instead slides up the
	// clean requests' distribution with the share of spoilt ones.
	tm.proofsPerS = percentile(rates, 75)
	tm.proveP50 = percentile(medians, 25)
	n := len(tm.serve.responses) // the valid answers; a failed request left none
	tm.allocMBPerProof = float64(alloc) / 1e6 / float64(n)
	for _, r := range tm.serve.responses {
		if !r.cached {
			tm.proveMS = append(tm.proveMS, r.ms)
		}
		tm.proofBytes = r.proofBytes
	}

	// After the clock: every mixBlock-th answer is verified over the wire,
	// and one tampered proof must be refused.
	if len(kept) > 0 {
		m.ops++
		bad, err := tampered(kept[0].proof)
		if err != nil {
			return nil, statement{}, err
		}
		if err := cl.Verify(ctx, s.digest, kept[0].public, bad); !errors.Is(err, client.ErrInvalidProof) {
			m.fail("a proof with a flipped evaluation was not refused as invalid: %v", err)
		}
	}
	verifyKept()
	tm.peakRSSMB = peakRSSMB()
	if rc.Trace {
		fresh := sched[0].Witness + uint64(len(sched)) // beyond every scheduled witness
		tm.serve.burstBatch = burst(ctx, s, mu, fresh, m)
	}
	return tm, first, nil
}

// burstPerClient is how many requests each client of the burst sends.
const burstPerClient = 8

// burst is the one place the service sees concurrent load: P clients, each
// sending burstPerClient fresh witnesses in a closed loop. It is kept off
// the clock because which requests share a batch is a race; it reports the
// batch size each answer came back with, for service.batch_size_mean.
func burst(ctx context.Context, s *served, mu int, witness uint64, m *meter) []float64 {
	var (
		mtx   sync.Mutex // guards m and sizes
		sizes []float64
		wg    sync.WaitGroup
	)
	for c := 0; c < parallelism(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := s.client()
			for k := 0; k < burstPerClient; k++ {
				st, err := chainStatement(mu, witness+uint64(c*burstPerClient+k))
				var pr *client.ProveResult
				if err == nil {
					pr, err = cl.Prove(ctx, s.digest, st.assignment)
				}
				mtx.Lock()
				m.ops++
				if err != nil {
					m.fail("burst request: %v", err)
				} else {
					sizes = append(sizes, float64(pr.BatchSize))
				}
				mtx.Unlock()
			}
		}()
	}
	wg.Wait()
	return sizes
}
