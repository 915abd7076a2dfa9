package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/service"
)

// SRSWarmer is the optional preload hook a worker backend may implement:
// pre-derive the SRS for a problem size before any circuit of that size
// arrives (the root package's engine backend implements it).
type SRSWarmer interface {
	WarmSRS(ctx context.Context, mu int) error
}

// WorkerConfig tunes a Worker.
type WorkerConfig struct {
	// Name identifies the worker in coordinator logs and /v1/cluster.
	Name string
	// Cores is the advertised proving parallelism (capability
	// advertisement only; the backend's own parallelism is set by whoever
	// builds it). Default 1.
	Cores int
	// PreloadMus are problem sizes whose SRS to pre-derive right after the
	// handshake, so the first dispatch pays no ceremony.
	PreloadMus []int
	// Scheme is the commitment scheme NewBackend's engines prove under,
	// advertised in the hello; empty means "pst". The coordinator refuses
	// workers whose scheme differs from its own.
	Scheme string
	// NewBackend builds the worker's prover once the handshake delivers
	// the cluster's shared setup seed — required so the worker's SRS
	// matches the coordinator's.
	NewBackend func(setupSeed []byte) (service.Backend, error)
	// HeartbeatInterval is the liveness cadence; default 1s. Keep it at or
	// below the coordinator's configured interval.
	HeartbeatInterval time.Duration
	// DialTimeout bounds the join dial; default 5s.
	DialTimeout time.Duration
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.Scheme == "" {
		c.Scheme = "pst"
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Worker is one proving daemon joined to a coordinator. Construct with
// Join; Wait blocks until the connection ends; Close leaves the cluster.
type Worker struct {
	cfg     WorkerConfig
	id      uint64
	conn    net.Conn
	fw      *frameWriter
	backend service.Backend

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	circuits map[[32]byte]*hyperplonk.Circuit
	inflight int
	closed   bool

	done    chan struct{}
	doneErr error
	wg      sync.WaitGroup
}

// Join dials the coordinator, completes the hello handshake (receiving
// the worker id and the cluster's shared setup seed), builds the backend
// from that seed, runs the configured SRS preloads, and starts the
// dispatch-serving and heartbeat loops.
func Join(ctx context.Context, addr string, cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	if cfg.NewBackend == nil {
		return nil, errors.New("cluster: WorkerConfig.NewBackend is required")
	}
	d := net.Dialer{Timeout: cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: joining %s: %w", addr, err)
	}
	w := &Worker{
		cfg:      cfg,
		conn:     conn,
		fw:       &frameWriter{w: newWriter(conn)},
		circuits: make(map[[32]byte]*hyperplonk.Circuit),
		done:     make(chan struct{}),
	}
	w.ctx, w.cancel = context.WithCancel(context.Background())

	// Bound the handshake: DialTimeout only covers the dial, so a
	// coordinator that accepts the connection but never acks would
	// otherwise block the hello read forever. The deadline covers both
	// handshake frames, tightens to ctx's own deadline, and a watcher
	// closes the connection if ctx is cancelled mid-handshake.
	hsDeadline := time.Now().Add(cfg.DialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(hsDeadline) {
		hsDeadline = d
	}
	conn.SetDeadline(hsDeadline)
	hsDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-hsDone:
		}
	}()

	hello := helloMsg{Name: cfg.Name, Cores: cfg.Cores, Scheme: cfg.Scheme, PreloadedMus: cfg.PreloadMus}
	if err := w.fw.send(msgHello, hello.marshal()); err != nil {
		close(hsDone)
		conn.Close()
		return nil, fmt.Errorf("cluster: hello: %w", err)
	}
	r := newReader(conn)
	typ, payload, err := readFrame(r)
	if err != nil || typ != msgHelloAck {
		close(hsDone)
		conn.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("cluster: awaiting hello ack: %w", cerr)
		}
		return nil, fmt.Errorf("cluster: awaiting hello ack: %v", err)
	}
	var ack helloAckMsg
	if err := ack.unmarshal(payload); err != nil {
		close(hsDone)
		conn.Close()
		return nil, fmt.Errorf("cluster: hello ack: %w", err)
	}
	close(hsDone)
	conn.SetDeadline(time.Time{})
	w.id = ack.WorkerID

	backend, err := cfg.NewBackend(ack.Seed[:])
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: building backend: %w", err)
	}
	w.backend = backend
	if warmer, ok := backend.(SRSWarmer); ok {
		for _, mu := range cfg.PreloadMus {
			if err := warmer.WarmSRS(ctx, mu); err != nil {
				conn.Close()
				return nil, fmt.Errorf("cluster: preloading mu=%d: %w", mu, err)
			}
			cfg.Logf("cluster worker %d: preloaded SRS for mu=%d", w.id, mu)
		}
	}

	w.wg.Add(2)
	go func() {
		defer w.wg.Done()
		w.readLoop(r)
	}()
	go func() {
		defer w.wg.Done()
		w.heartbeatLoop()
	}()
	cfg.Logf("cluster worker %d (%s): joined %s", w.id, cfg.Name, addr)
	return w, nil
}

// ID returns the coordinator-assigned worker id.
func (w *Worker) ID() uint64 { return w.id }

// Wait blocks until the worker leaves the cluster (Close, coordinator
// shutdown, or connection failure) and returns the terminal cause; a
// graceful Close yields nil.
func (w *Worker) Wait() error {
	<-w.done
	return w.doneErr
}

// Close leaves the cluster: best-effort goodbye, then connection teardown.
// In-flight proofs are abandoned — the coordinator re-queues them.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	w.fw.send(msgGoodbye, nil)
	w.cancel()
	w.conn.Close()
	w.wg.Wait()
	return nil
}

// finish publishes the terminal state once.
func (w *Worker) finish(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.done:
		return
	default:
	}
	if w.closed {
		err = nil
	}
	w.doneErr = err
	close(w.done)
}

// readLoop serves coordinator frames until the connection ends.
func (w *Worker) readLoop(r *bufio.Reader) {
	for {
		typ, payload, err := readFrame(r)
		if err != nil {
			w.cancel()
			w.finish(fmt.Errorf("cluster: connection lost: %w", err))
			return
		}
		switch typ {
		case msgDispatch:
			var msg dispatchMsg
			if err := msg.unmarshal(payload); err != nil {
				w.cancel()
				w.finish(fmt.Errorf("cluster: bad dispatch: %w", err))
				return
			}
			// Resolve the circuit here, in frame order, before handing the
			// batch to a proving goroutine: the coordinator marks a digest
			// resident as soon as it sends the blob, so a later blob-free
			// dispatch of the same circuit may be racing right behind this
			// frame and must find the cache already populated.
			circuit, cerr := w.circuitFor(&msg)
			w.wg.Add(1)
			go func() {
				defer w.wg.Done()
				w.runDispatch(&msg, circuit, cerr)
			}()
		case msgGoodbye:
			w.cancel()
			w.finish(nil)
			return
		default:
			w.cancel()
			w.finish(fmt.Errorf("cluster: unexpected message type %d", typ))
			return
		}
	}
}

// runDispatch proves one batch and returns the results. The circuit was
// resolved by the readLoop (or failed with cerr) so that residency-cache
// population happens in frame order.
func (w *Worker) runDispatch(msg *dispatchMsg, circuit *hyperplonk.Circuit, cerr error) {
	w.mu.Lock()
	w.inflight += len(msg.Witnesses)
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inflight -= len(msg.Witnesses)
		w.mu.Unlock()
	}()

	res := resultMsg{BatchID: msg.BatchID}
	if cerr != nil {
		// CircuitFailed tells the coordinator its optimistic residency
		// mark is wrong — we never cached this circuit — so it can clear
		// the mark and retry with the blob instead of poisoning every
		// later dispatch of the digest to this worker.
		res.CircuitFailed = true
		res.Results = failAll(len(msg.Witnesses), cerr)
		w.sendResult(&res)
		return
	}

	jobs := make([]service.BackendJob, 0, len(msg.Witnesses))
	decodeErr := make([]error, len(msg.Witnesses))
	idx := make([]int, 0, len(msg.Witnesses))
	for i, blob := range msg.Witnesses {
		var a hyperplonk.Assignment
		if err := a.UnmarshalBinary(blob); err != nil {
			decodeErr[i] = err
			continue
		}
		jobs = append(jobs, service.BackendJob{Circuit: circuit, Assignment: &a})
		idx = append(idx, i)
	}

	results := w.backend.ProveBatch(w.ctx, jobs)
	out := make([]jobResult, len(msg.Witnesses))
	for i, err := range decodeErr {
		if err != nil {
			out[i] = jobResult{Err: fmt.Sprintf("decoding witness: %v", err)}
		}
	}
	for k, r := range results {
		i := idx[k]
		if r.Err != nil {
			out[i] = jobResult{Err: r.Err.Error()}
			continue
		}
		blob, err := r.Proof.MarshalBinary()
		if err != nil {
			out[i] = jobResult{Err: fmt.Sprintf("serializing proof: %v", err)}
			continue
		}
		jr := jobResult{Proof: blob, ProverNS: r.ProverTime.Nanoseconds()}
		jr.Public = make([][]byte, len(r.PublicInputs))
		for p := range r.PublicInputs {
			b := r.PublicInputs[p].Bytes()
			jr.Public[p] = b[:]
		}
		if len(r.Steps) > 0 {
			jr.StepsNS = make(map[string]int64, len(r.Steps))
			for k, v := range r.Steps {
				jr.StepsNS[k] = v.Nanoseconds()
			}
		}
		out[i] = jr
	}
	res.Results = out
	w.sendResult(&res)
}

func failAll(n int, err error) []jobResult {
	out := make([]jobResult, n)
	for i := range out {
		out[i] = jobResult{Err: err.Error()}
	}
	return out
}

func (w *Worker) sendResult(res *resultMsg) {
	if err := w.fw.send(msgResult, res.marshal()); err != nil {
		w.cfg.Logf("cluster worker %d: sending result: %v", w.id, err)
	}
}

// circuitFor resolves the dispatch's circuit from the resident cache or
// the inline blob (validated on decode, then cached).
func (w *Worker) circuitFor(msg *dispatchMsg) (*hyperplonk.Circuit, error) {
	w.mu.Lock()
	c := w.circuits[msg.Digest]
	w.mu.Unlock()
	if c != nil {
		return c, nil
	}
	if len(msg.Circuit) == 0 {
		return nil, errors.New("cluster: circuit not resident and no blob sent")
	}
	var decoded hyperplonk.Circuit
	if err := decoded.UnmarshalBinary(msg.Circuit); err != nil {
		return nil, fmt.Errorf("cluster: decoding circuit: %w", err)
	}
	if got := decoded.Digest(); got != msg.Digest {
		return nil, errors.New("cluster: circuit blob does not match dispatch digest")
	}
	w.mu.Lock()
	w.circuits[msg.Digest] = &decoded
	w.mu.Unlock()
	return &decoded, nil
}

// heartbeatLoop reports liveness and load until the worker stops.
func (w *Worker) heartbeatLoop() {
	ticker := time.NewTicker(w.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			w.mu.Lock()
			hb := heartbeatMsg{Inflight: uint32(w.inflight)}
			w.mu.Unlock()
			if err := w.fw.send(msgHeartbeat, hb.marshal()); err != nil {
				return
			}
		case <-w.ctx.Done():
			return
		}
	}
}
