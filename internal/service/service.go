// Package service implements zkproverd's proving service: one bounded
// fair-share queue with backpressure, drained by a fixed number of batch
// loops over one prover backend; a batch-accumulation window that
// coalesces same-circuit jobs into one ProveBatch call; an LRU proof cache
// keyed by (circuit digest, witness digest); a circuit registry; and the
// HTTP/JSON API that exposes all of it (see http.go and the zkspeed/api
// package).
//
// The deployment shape follows the paper's framing of HyperPlonk proving
// as a datacenter workload: throughput is won by keeping expensive shared
// state (SRS, per-circuit keys) resident and by amortizing setup across
// tenants. HyperPlonk's setup is universal, so the one backend holds one
// SRS per problem size and one key set per circuit for every loop, and
// same-circuit jobs queued or being admitted when a loop pops share a
// single ProveBatch invocation. An idle loop simply pops the next queued
// job.
//
// The package is deliberately unaware of the root zkspeed package (which
// wraps it): backends implement the small Backend interface, and the root
// package adapts *zkspeed.Engine to it.
package service

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zkspeed/api"
	"zkspeed/internal/ff"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/store"
	"zkspeed/internal/tenant"
	"zkspeed/internal/transcript"
)

// BackendJob is one proving work item handed to the backend.
type BackendJob struct {
	Circuit    *hyperplonk.Circuit
	Assignment *hyperplonk.Assignment
}

// BackendResult is the outcome of one BackendJob, in job order.
type BackendResult struct {
	Proof        *hyperplonk.Proof
	PublicInputs []ff.Fr
	ProverTime   time.Duration
	Steps        map[string]time.Duration
	Err          error
}

// BackendStats are the backend engine's setup/work counters.
type BackendStats struct {
	SRSSetups    int
	KeySetups    int
	KeyCacheHits int
	Proofs       int
	Verifies     int
}

// Backend is the prover the batch loops drive — in production the one
// *zkspeed.Engine (adapted by the root package, which this package cannot
// import), in tests a stub. Every loop calls it concurrently.
type Backend interface {
	// ProveBatch proves the jobs, amortizing setup; len(results) ==
	// len(jobs) and per-job failures land in BackendResult.Err.
	ProveBatch(ctx context.Context, jobs []BackendJob) []BackendResult
	// Verify checks a proof for a circuit.
	Verify(ctx context.Context, c *hyperplonk.Circuit, pub []ff.Fr, proof *hyperplonk.Proof) error
	// Setup warms the backend's SRS and key caches for the circuit
	// without proving anything.
	Setup(ctx context.Context, c *hyperplonk.Circuit) error
	// Stats reports the backend's cumulative work counters.
	Stats() BackendStats
}

// Config tunes the service. Zero values select the documented defaults;
// CacheSize < 0 disables the proof cache.
type Config struct {
	// QueueCapacity bounds the job queue; a full queue rejects with
	// OverloadedError (HTTP 429). Default 64.
	QueueCapacity int
	// BatchWindow caps how long a loop holds a batch open for
	// same-circuit jobs: after taking the queued ones it waits only while
	// a submission is being admitted, after setting up a circuit's first
	// batch, or after a batch that met other submitters (see batchLoop),
	// never longer than this. 0 selects the 5ms default; negative
	// disables coalescing.
	BatchWindow time.Duration
	// MaxBatch caps jobs per ProveBatch call. Default 16.
	MaxBatch int
	// CacheSize is the LRU proof-cache capacity in entries. Default 256;
	// negative disables caching.
	CacheSize int
	// JobRetention is how many finished jobs stay pollable via
	// GET /v1/jobs/{id}. Default 1024.
	JobRetention int
	// MaxCircuits bounds the registry — the decoded tables of a mu=20
	// circuit hold ~256 MiB, so like every other service resource the
	// registry must reject rather than grow without limit. Default 4096.
	MaxCircuits int
	// Store persists the job lifecycle. nil keeps jobs in process memory
	// only (the pre-durability behaviour). A store (store.WAL) changes two
	// things: New replays it — re-registering circuits, re-queueing
	// unfinished jobs under their original IDs, restoring completed results
	// for polling — and Close drains queued jobs to the store instead of
	// failing them terminally. The service takes
	// ownership and closes the store on Close.
	Store store.Store
	// Tenants, when non-nil, turns on API-key authentication and
	// per-tenant quotas for the /v1 endpoints, plus deficit-round-robin
	// fair-share scheduling between tenants in the queue.
	// nil runs the service unauthenticated (every job anonymous).
	Tenants *tenant.Registry
}

func (c Config) withDefaults() Config {
	if c.QueueCapacity == 0 {
		c.QueueCapacity = 64
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 5 * time.Millisecond
	}
	if c.BatchWindow < 0 {
		c.BatchWindow = 0 // coalescing disabled; batchLoop skips the collector
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0 // proofCache treats 0 as disabled
	}
	if c.JobRetention == 0 {
		c.JobRetention = 1024
	}
	if c.MaxCircuits == 0 {
		c.MaxCircuits = 4096
	}
	return c
}

// errShutdown fails jobs cut short by Close; unlike a prover rejection it
// is retryable against a healthy instance, so the HTTP layer must answer
// 503, not 422.
var errShutdown = errors.New("service: shutting down")

// errUnrecorded fails the jobs of a batch whose terminal records the
// store could not write. They stay pending in the log, so replay proves
// them again, and the same request succeeds against a healthy instance.
var errUnrecorded = errors.New("service: recording results")

// job is one proving request flowing through the service.
type job struct {
	id      string
	digest  [32]byte
	entry   *circuitEntry
	assign  *hyperplonk.Assignment
	witness cacheKey
	// cost is the job's DRR weight — its circuit's gate count, the unit
	// the prover's work actually scales with.
	cost int64
	// tenantID attributes the job for fair-share and metrics ("" =
	// anonymous); tenantRef, when non-nil, holds an in-flight quota slot
	// released on the terminal transition. Recovered jobs keep their
	// tenantID but hold no slot (the admitting daemon already died).
	tenantID  string
	tenantRef *tenant.Tenant
	// persisted marks jobs with a store submit record (cache hits are
	// answered synchronously and never persisted).
	persisted bool
	// pushSeq is the queue's insertion stamp (collect takes the oldest).
	pushSeq uint64
	// adm is the admission that brought the job (nil: replayed). A batch
	// whose jobs came by more than one admission met other submitters.
	adm *admission

	mu     sync.Mutex
	status string
	resp   api.ProveResponse
	// retryable marks a failure as transient (shutdown, cancellation)
	// rather than a prover rejection of the statement.
	retryable bool
	done      chan struct{}
}

func (j *job) setRunning() {
	j.mu.Lock()
	if j.status == api.StatusQueued {
		j.status = api.StatusRunning
	}
	j.mu.Unlock()
}

// finish publishes the terminal response exactly once, returning the
// tenant's in-flight slot with it.
func (j *job) finish(resp api.ProveResponse) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == api.StatusDone || j.status == api.StatusFailed {
		return
	}
	resp.JobID = j.id
	if j.digest != ([32]byte{}) {
		resp.CircuitDigest = hex.EncodeToString(j.digest[:])
	}
	j.status = resp.Status
	j.resp = resp
	// A terminal job is kept (JobRetention) only to be polled; its witness
	// tables, the bulk of its memory, have no reader left.
	j.assign = nil
	if j.tenantRef != nil {
		j.tenantRef.ReleaseJob()
	}
	close(j.done)
}

// transientErr reports whether err cut the job short for reasons a
// retry against a healthy instance would fix — shutdown, context
// cancellation or a store that could not record the batch, never a prover
// rejection. Transient failures are not recorded in the store: absence is
// what re-queues the job on replay.
func transientErr(err error) bool {
	return errors.Is(err, errShutdown) || errors.Is(err, errUnrecorded) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (j *job) fail(err error) {
	retryable := transientErr(err)
	j.mu.Lock()
	j.retryable = retryable
	j.mu.Unlock()
	j.finish(api.ProveResponse{Status: api.StatusFailed, Error: err.Error(), Retryable: retryable})
}

// failedRetryable reports whether the job failed for a transient reason.
func (j *job) failedRetryable() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == api.StatusFailed && j.retryable
}

// response snapshots the job's current public state.
func (j *job) response() api.ProveResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == api.StatusDone || j.status == api.StatusFailed {
		return j.resp
	}
	return api.ProveResponse{
		JobID:         j.id,
		Status:        j.status,
		CircuitDigest: hex.EncodeToString(j.digest[:]),
	}
}

// circuitEntry is one registered relation.
type circuitEntry struct {
	digest  [32]byte
	circuit *hyperplonk.Circuit

	// warm is set once the backend has set up the circuit's keys
	// (Preload, or a loop before its first batch).
	warm atomic.Bool

	mu     sync.Mutex
	proofs int64
}

func (e *circuitEntry) info() api.CircuitInfo {
	e.mu.Lock()
	proofs := e.proofs
	e.mu.Unlock()
	return api.CircuitInfo{
		Digest:    hex.EncodeToString(e.digest[:]),
		Mu:        e.circuit.Mu,
		NumGates:  e.circuit.NumGates(),
		NumPublic: e.circuit.NumPublic,
		Proofs:    proofs,
	}
}

// Service is the proving service. Construct with New, serve its Handler,
// Close on shutdown.
type Service struct {
	cfg     Config
	backend Backend
	queue   *jobQueue
	loops   int // batch loops draining queue
	met     *Metrics
	cache   *proofCache
	// store is nil when the service is volatile; every persistence call
	// is gated on it so the volatile default pays no marshalling or
	// bookkeeping cost.
	store    store.Store
	recovery RecoveryStats

	regMu    sync.RWMutex
	circuits map[[32]byte]*circuitEntry

	jobsMu sync.Mutex
	jobs   map[string]*job
	order  []string // insertion order, for retention eviction
	seq    int64

	// ready gates /readyz; default true so embedded services need no
	// ceremony, daemons toggle it around preload and drain.
	ready    atomic.Bool
	notReady atomic.Pointer[string]

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// RecoveryStats describes what New replayed from a durable store.
type RecoveryStats struct {
	// Durable reports whether a restart-surviving store is attached.
	Durable bool
	// Circuits re-registered, pending jobs re-queued, completed results
	// and terminal failures restored for polling.
	Circuits int
	Requeued int
	Results  int
	Failures int
}

// New assembles a service over the backend, replays the configured store
// (re-queueing any jobs a previous incarnation acknowledged but never
// finished), and starts loops batch loops (at least one) draining the
// one queue into the backend concurrently. With a durable store, keep
// the backend's entropy seed across restarts so re-proved jobs yield
// byte-identical proofs.
func New(cfg Config, backend Backend, loops int) (*Service, error) {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		backend:  backend,
		queue:    newJobQueue(cfg.QueueCapacity),
		loops:    max(loops, 1),
		met:      newMetrics(),
		cache:    newProofCache(cfg.CacheSize),
		store:    cfg.Store,
		circuits: make(map[[32]byte]*circuitEntry),
		jobs:     make(map[string]*job),
		ctx:      ctx,
		cancel:   cancel,
	}
	s.ready.Store(true)
	if s.store != nil {
		if err := s.replayStore(); err != nil {
			cancel()
			return nil, err
		}
	}
	for range s.loops {
		s.wg.Add(1)
		go s.batchLoop()
	}
	return s, nil
}

// replayStore rebuilds the registry, queues and pollable results from
// the store's recovered state. It runs before the batch loops start, so
// re-queued jobs keep their submit order ahead of any new arrivals.
func (s *Service) replayStore() error {
	st := s.store.State()
	s.recovery.Durable = true
	for _, blob := range st.Circuits {
		var c hyperplonk.Circuit
		if err := c.UnmarshalBinary(blob); err != nil {
			return fmt.Errorf("service: recovering circuit: %w", err)
		}
		if _, err := s.RegisterCircuit(&c); err != nil {
			return fmt.Errorf("service: recovering circuit: %w", err)
		}
		s.recovery.Circuits++
	}
	// Terminal records become finished jobs so GET /v1/jobs serves the
	// recorded result — byte-identical to what the dead daemon proved.
	restore := func(id string, digest [32]byte, resp api.ProveResponse) {
		j := &job{id: id, digest: digest, status: api.StatusQueued, done: make(chan struct{})}
		j.finish(resp)
		s.noteJobID(id)
		s.trackJob(j)
	}
	for id, r := range st.Done {
		restore(id, r.Circuit, api.ProveResponse{
			Status:       api.StatusDone,
			Proof:        r.Proof,
			PublicInputs: r.PublicInputs,
			ProverNS:     r.ProverNS,
		})
		s.recovery.Results++
	}
	for id, f := range st.Failed {
		restore(id, [32]byte{}, api.ProveResponse{Status: api.StatusFailed, Error: f.Msg})
		s.recovery.Failures++
	}
	for _, rec := range st.Pending {
		entry, ok := s.Circuit(rec.Circuit)
		if !ok {
			s.store.Finish(nil, []store.Failure{{ID: rec.ID, Msg: "recovery: circuit not in store"}})
			restore(rec.ID, rec.Circuit, api.ProveResponse{Status: api.StatusFailed, Error: "recovery: circuit not in store"})
			s.recovery.Failures++
			continue
		}
		assign := new(hyperplonk.Assignment)
		if err := assign.UnmarshalBinary(rec.Witness); err != nil {
			msg := fmt.Sprintf("recovery: decoding witness: %v", err)
			s.store.Finish(nil, []store.Failure{{ID: rec.ID, Msg: msg}})
			restore(rec.ID, rec.Circuit, api.ProveResponse{Status: api.StatusFailed, Error: msg})
			s.recovery.Failures++
			continue
		}
		j := &job{
			id:      rec.ID,
			digest:  entry.digest,
			entry:   entry,
			assign:  assign,
			witness: cacheKey{circuit: entry.digest, witness: assign.Digest()},
			cost:    int64(entry.circuit.NumGates()),
			// The admitting daemon's quota slot died with it; keep the
			// attribution for fair-share and metrics but hold no new slot.
			tenantID:  rec.Tenant,
			persisted: true,
			status:    api.StatusQueued,
			done:      make(chan struct{}),
		}
		s.noteJobID(rec.ID)
		// forcePush: capacity bounded the original admission; dropping a
		// recovered job here would break the zero-loss guarantee.
		if err := s.queue.forcePush(j); err != nil {
			return fmt.Errorf("service: re-queueing %s: %w", rec.ID, err)
		}
		s.trackJob(j)
		s.recovery.Requeued++
	}
	return nil
}

// noteJobID advances the job-id sequence past a recovered id so new jobs
// never collide with recovered ones.
func (s *Service) noteJobID(id string) {
	hexPart, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return
	}
	n, err := strconv.ParseInt(hexPart, 16, 64)
	if err != nil {
		return
	}
	s.jobsMu.Lock()
	if n > s.seq {
		s.seq = n
	}
	s.jobsMu.Unlock()
}

// Recovery reports what New replayed from the store.
func (s *Service) Recovery() RecoveryStats { return s.recovery }

// SetReady toggles the /readyz answer. reason explains a false state
// ("preloading circuits", "draining"); ignored when ready.
func (s *Service) SetReady(ready bool, reason string) {
	if !ready {
		s.notReady.Store(&reason)
	}
	s.ready.Store(ready)
}

// ReadyState answers /readyz: ready iff SetReady(true), the default.
func (s *Service) ReadyState() api.Ready {
	if !s.ready.Load() {
		reason := "not ready"
		if r := s.notReady.Load(); r != nil {
			reason = *r
		}
		return api.Ready{Ready: false, Reason: reason}
	}
	return api.Ready{Ready: true}
}

// Close stops the batch loops and shuts down the store, if one is
// attached. Safe to call more than once.
//
// Queued-but-unstarted jobs are never abandoned silently: every one is
// failed in-memory with a retryable shutdown error (waiters unblock,
// pollers see a terminal status instead of a vanished id). With a
// durable store that failure is deliberately NOT recorded — the jobs
// stay pending in the log and the next incarnation re-queues them under
// the same ids, which is the drain-to-store half of the contract. The
// same applies to jobs cut mid-batch by the context cancellation:
// transient failures leave no record, so they resume too.
func (s *Service) Close() {
	s.SetReady(false, "shutting down")
	s.cancel()
	for _, j := range s.queue.Close() {
		j.fail(errShutdown)
	}
	s.wg.Wait()
	if s.store != nil {
		s.store.Close()
	}
}

// Metrics exposes the instrumentation (the HTTP layer and tests read it).
func (s *Service) Metrics() *Metrics { return s.met }

// ErrRegistryFull is returned by RegisterCircuit at the MaxCircuits
// bound; the HTTP layer renders it as 507 Insufficient Storage, and
// any other registration failure as 503.
var ErrRegistryFull = errors.New("service: circuit registry full")

// RegisterCircuit adds the circuit to the registry (idempotent) and
// returns its entry, or ErrRegistryFull at the MaxCircuits bound. The
// circuit must already be validated — both wire deserialization and the
// builder guarantee that.
func (s *Service) RegisterCircuit(c *hyperplonk.Circuit) (*circuitEntry, error) {
	digest := c.Digest()
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if e, ok := s.circuits[digest]; ok {
		return e, nil
	}
	if len(s.circuits) >= s.cfg.MaxCircuits {
		return nil, ErrRegistryFull
	}
	if s.store != nil {
		// Persist before acknowledging: a registration the store cannot
		// record would strand every job that references it after a crash.
		blob, err := c.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("service: encoding circuit for store: %w", err)
		}
		if err := s.store.PutCircuit(digest, blob); err != nil {
			return nil, fmt.Errorf("service: persisting circuit: %w", err)
		}
	}
	e := &circuitEntry{digest: digest, circuit: c}
	s.circuits[digest] = e
	return e, nil
}

// Preload registers the circuit and warms the backend's SRS and key
// caches, which every loop shares, so the first real request pays no
// one-time setup.
func (s *Service) Preload(ctx context.Context, c *hyperplonk.Circuit) (api.CircuitInfo, error) {
	entry, err := s.RegisterCircuit(c)
	if err != nil {
		return api.CircuitInfo{}, err
	}
	if err := s.backend.Setup(ctx, c); err != nil {
		return api.CircuitInfo{}, err
	}
	entry.warm.Store(true)
	return entry.info(), nil
}

// Circuit looks up a registered circuit by digest.
func (s *Service) Circuit(digest [32]byte) (*circuitEntry, bool) {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	e, ok := s.circuits[digest]
	return e, ok
}

func (s *Service) circuitCount() int {
	s.regMu.RLock()
	defer s.regMu.RUnlock()
	return len(s.circuits)
}

// QueueDepth is the number of queued jobs.
func (s *Service) QueueDepth() int { return s.queue.Depth() }

var errWitnessSize = errors.New("service: witness size does not match circuit")

// errBadWitness wraps stream-decode failures so the HTTP layer can
// distinguish a malformed upload (400) from an internal store error (503).
var errBadWitness = errors.New("service: invalid witness")

// submitOpts carries the optional context of a submission.
type submitOpts struct {
	// tn is the submitting tenant; nil = anonymous (no quotas).
	tn *tenant.Tenant
	// rawWitness is the witness's ZKSW encoding when the caller already
	// holds it (the HTTP path), sparing the durable store a re-marshal.
	rawWitness []byte
	// streamedID, when non-empty, is a pre-allocated job id whose witness
	// bytes were already streamed into the store; the submit record
	// adopts them instead of carrying the blob again.
	streamedID string
	// adm is the admission the submission belongs to. submit ends it:
	// with the push that queues the job, or on whatever exit queues
	// nothing. more leaves it open for the statements of the same batch
	// that follow.
	adm  *admission
	more bool
}

// Submit enqueues one proving job (or serves it from the proof cache) on
// behalf of tenant tn, charging its in-flight quota for the job's
// lifetime; nil tn is anonymous. rawWitness, when non-nil, is the
// assignment's ZKSW encoding, sparing the store a re-marshal. The returned
// job's done channel closes when a terminal response is available. An
// *OverloadedError means the queue was full; a *tenant.QuotaError a
// tenant quota refusal.
func (s *Service) Submit(tn *tenant.Tenant, entry *circuitEntry, assign *hyperplonk.Assignment, rawWitness []byte) (*job, error) {
	a := s.queue.admit()
	return s.submit(entry, assign, submitOpts{tn: tn, rawWitness: rawWitness, adm: a})
}

// submitStream decodes a ZKSW witness incrementally from r and submits
// the job within admission a, which it ends. With a store the raw bytes
// tee into the store's witness writer as they arrive, so a large upload
// is never held whole in memory; the writer logs them as chunk records
// of up to 64 KiB, and the submit record appended after them makes them
// durable. Malformed bytes are reported wrapped in errBadWitness; a
// failing store is not, so the HTTP layer answers it 503 rather than 400.
func (s *Service) submitStream(a *admission, tn *tenant.Tenant, entry *circuitEntry, r io.Reader) (*job, error) {
	defer a.end()
	assign := new(hyperplonk.Assignment)
	if s.store == nil {
		if err := assign.UnmarshalFrom(r); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadWitness, err)
		}
		return s.submit(entry, assign, submitOpts{tn: tn, adm: a})
	}
	id := s.nextJobID()
	ww, err := s.store.WitnessWriter(id)
	if err != nil {
		return nil, fmt.Errorf("service: opening witness stream: %w", err)
	}
	tee := &storeTee{r: r, w: ww}
	if err := assign.UnmarshalFrom(tee); err != nil {
		// Discarding first keeps Close from logging the buffered tail.
		s.store.DiscardWitness(id)
		ww.Close()
		if tee.err != nil {
			return nil, fmt.Errorf("service: streaming witness to store: %w", tee.err)
		}
		return nil, fmt.Errorf("%w: %v", errBadWitness, err)
	}
	if err := ww.Close(); err != nil {
		s.store.DiscardWitness(id)
		return nil, fmt.Errorf("service: sealing witness stream: %w", err)
	}
	j, err := s.submit(entry, assign, submitOpts{tn: tn, streamedID: id, adm: a})
	if err != nil {
		s.store.DiscardWitness(id)
		return nil, err
	}
	return j, nil
}

// storeTee is io.TeeReader that remembers a failed write, so a store
// error is not mistaken for a malformed witness.
type storeTee struct {
	r   io.Reader
	w   io.Writer
	err error
}

func (t *storeTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 {
		if _, werr := t.w.Write(p[:n]); werr != nil {
			t.err = werr
			return n, werr
		}
	}
	return n, err
}

// submit is the submission core shared by Submit, submitStream and
// submitBatch. Unless o.more, it ends o.adm: with the push, or on return.
func (s *Service) submit(entry *circuitEntry, assign *hyperplonk.Assignment, o submitOpts) (*job, error) {
	ends := o.adm
	if o.more {
		ends = nil
	}
	defer ends.end()
	if assign.W1.Len() != entry.circuit.NumGates() ||
		assign.W2.Len() != entry.circuit.NumGates() ||
		assign.W3.Len() != entry.circuit.NumGates() {
		return nil, errWitnessSize
	}
	tid := ""
	if o.tn != nil {
		tid = o.tn.ID()
		if err := o.tn.AcquireJob(); err != nil {
			s.met.observeTenant(tid, tenantRejected)
			return nil, err
		}
	}
	// The slot is held until the job's terminal transition (finish
	// releases it); error paths below release explicitly.
	release := func() {
		if o.tn != nil {
			o.tn.ReleaseJob()
		}
	}
	id := o.streamedID
	if id == "" {
		id = s.nextJobID()
	}
	key := cacheKey{circuit: entry.digest, witness: assign.Digest()}
	j := &job{
		id:        id,
		digest:    entry.digest,
		entry:     entry,
		assign:    assign,
		witness:   key,
		cost:      int64(entry.circuit.NumGates()),
		tenantID:  tid,
		tenantRef: o.tn,
		adm:       o.adm,
		status:    api.StatusQueued,
		done:      make(chan struct{}),
	}
	if hit := s.cache.Get(key); hit != nil {
		s.met.add(&s.met.cacheHits, 1)
		entry.mu.Lock()
		entry.proofs++
		entry.mu.Unlock()
		if o.streamedID != "" {
			s.store.DiscardWitness(id) // answered from cache; drop the streamed copy
		}
		j.finish(api.ProveResponse{
			Status:       api.StatusDone,
			Proof:        hit.proof,
			PublicInputs: encodeFrs(hit.public),
			Cached:       true,
		})
		s.trackJob(j)
		return j, nil
	}
	if s.store != nil {
		// Append the submit record before the queue push: once the push
		// succeeds the job can reach a loop (and its terminal record)
		// at any moment, and the log must never show a result for an
		// unsubmitted job.
		rec := store.JobRecord{ID: id, Tenant: tid, Circuit: entry.digest}
		if o.streamedID == "" {
			raw := o.rawWitness
			if raw == nil {
				var err error
				if raw, err = assign.MarshalBinary(); err != nil {
					release()
					return nil, fmt.Errorf("service: encoding witness for store: %w", err)
				}
			}
			rec.Witness = raw
		}
		if err := s.store.Submit(rec); err != nil {
			release()
			return nil, fmt.Errorf("service: persisting job: %w", err)
		}
		j.persisted = true
	}
	if err := s.queue.Push(j, ends); err != nil {
		if j.persisted {
			// Neutralize the submit record — the client never saw the id,
			// so replaying it after a restart would prove a job nobody
			// can poll.
			s.store.Finish(nil, []store.Failure{{ID: id, Msg: "rejected at admission: queue full"}})
		}
		release()
		if errors.Is(err, errQueueFull) {
			s.met.add(&s.met.jobsRejected, 1)
			s.met.observeTenant(tid, tenantRejected)
			return nil, &OverloadedError{RetryAfter: s.met.retryAfter(s.queue.Depth(), s.loops)}
		}
		return nil, err
	}
	s.trackJob(j)
	return j, nil
}

// submitBatch enqueues a rollup batch of statements over one circuit on
// behalf of tenant tn (nil is anonymous). Every loop pops from the one
// queue, so the statements spread over all loops, each loop's share
// coalescing into one ProveBatch call. A batch larger
// than the queue's free capacity is rejected whole with an
// *OverloadedError rather than partially enqueued; a racing submitter can
// still fill the queue mid-batch, in which case already enqueued
// statements run to completion and the error reports the rest. raws, when
// non-nil, carries each statement's ZKSW encoding (index-aligned with
// assigns) so the store is spared a re-marshal per statement. Each
// statement charges the tenant's in-flight quota independently; a quota
// refusal mid-batch behaves like the racing-submitter case. The whole
// batch is one admission, ended by its last statement's push, so a loop
// that pops an early statement holds its batch open for the rest: adm,
// which submitBatch ends.
func (s *Service) submitBatch(adm *admission, tn *tenant.Tenant, entry *circuitEntry, assigns []*hyperplonk.Assignment, raws [][]byte) ([]*job, error) {
	defer adm.end()
	if len(assigns) == 0 {
		return nil, errors.New("service: empty batch")
	}
	n := len(assigns)
	if depth := s.queue.Depth(); n > s.cfg.QueueCapacity-depth {
		s.met.add(&s.met.jobsRejected, int64(n))
		return nil, &OverloadedError{RetryAfter: s.met.retryAfter(depth+n, s.loops)}
	}
	jobs := make([]*job, n)
	for i, a := range assigns {
		o := submitOpts{tn: tn, adm: adm, more: i < n-1}
		if i < len(raws) {
			o.rawWitness = raws[i]
		}
		j, err := s.submit(entry, a, o)
		if err != nil {
			return nil, fmt.Errorf("statement %d: %w", i, err)
		}
		jobs[i] = j
	}
	return jobs, nil
}

// proveBatchWait is submitBatch plus waiting for every statement — the
// synchronous POST /v1/prove_batch path (see submitBatch for the tn/raws
// semantics). It ends admission a before it waits. The batch digest binds
// the proof blobs in statement order and is only computed when every
// statement succeeded.
func (s *Service) proveBatchWait(ctx context.Context, a *admission, tn *tenant.Tenant, entry *circuitEntry, assigns []*hyperplonk.Assignment, raws [][]byte) (api.ProveBatchResponse, error) {
	jobs, err := s.submitBatch(a, tn, entry, assigns, raws)
	if err != nil {
		return api.ProveBatchResponse{}, err
	}
	resp := api.ProveBatchResponse{
		CircuitDigest: hex.EncodeToString(entry.digest[:]),
		Results:       make([]api.ProveResponse, len(jobs)),
	}
	for i, j := range jobs {
		select {
		case <-j.done:
			resp.Results[i] = j.response()
			if resp.Results[i].Status == api.StatusFailed {
				resp.Failed++
			}
		case <-ctx.Done():
			return api.ProveBatchResponse{}, ctx.Err()
		}
	}
	if resp.Failed == 0 {
		// The digest binds each statement — proof and public inputs — in
		// order, so it identifies the batch's content, not just its proofs.
		tr := transcript.New("zkspeed.service.batch")
		tr.AppendBytes("circuit", entry.digest[:])
		for i := range resp.Results {
			tr.AppendBytes("proof", resp.Results[i].Proof)
			for _, p := range resp.Results[i].PublicInputs {
				tr.AppendBytes("public", p)
			}
		}
		d := tr.ChallengeFr("digest")
		db := d.Bytes()
		resp.BatchDigest = hex.EncodeToString(db[:])
	}
	return resp, nil
}

// Job returns a tracked job by id.
func (s *Service) Job(id string) (*job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Service) nextJobID() string {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.seq++
	return fmt.Sprintf("job-%06x", s.seq)
}

// trackJob records the job for polling, evicting the oldest finished jobs
// beyond the retention bound. Unfinished jobs are never evicted — they
// are bounded by queue capacity plus in-flight batches. Compaction waits
// for a slack of excess jobs and then trims back to the bound, so its
// O(retention) scan amortizes to O(1) per submission instead of running
// on every request at steady state.
func (s *Service) trackJob(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	slack := s.cfg.JobRetention / 4
	if slack < 32 {
		slack = 32
	}
	if len(s.jobs) <= s.cfg.JobRetention+slack {
		return
	}
	kept := s.order[:0]
	excess := len(s.jobs) - s.cfg.JobRetention
	for _, id := range s.order {
		old := s.jobs[id]
		if excess > 0 && old != nil {
			old.mu.Lock()
			finished := old.status == api.StatusDone || old.status == api.StatusFailed
			old.mu.Unlock()
			if finished {
				delete(s.jobs, id)
				excess--
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Verify checks a proof against a registered circuit.
func (s *Service) Verify(ctx context.Context, entry *circuitEntry, pub []ff.Fr, proof *hyperplonk.Proof) error {
	err := s.backend.Verify(ctx, entry.circuit, pub, proof)
	s.met.mu.Lock()
	s.met.verifies++
	if err != nil {
		s.met.verifyFailed++
	}
	s.met.mu.Unlock()
	return err
}

// batchLoop is one of the service's consumers: pop a job, gather the
// same-circuit jobs queued or on their way behind it, prove the batch,
// publish results. Proving runs inside the loop, so a loop works one
// batch at a time while the queue absorbs (and coalesces) arrivals; the
// other loops keep popping meanwhile.
//
// A batch waits for jobs nobody is submitting yet in two cases only,
// never longer than BatchWindow:
//   - The circuit's first batch: the loop sets the circuit up before it
//     closes the batch, then waits as long again as the setup took.
//     Jobs that arrive meanwhile share a batch that pays the setup
//     anyway, and the caller that needed the setup pays at most twice
//     it.
//   - After a batch that met other submitters of its circuit (see
//     metOthers): clients that keep requests going side by side come
//     back from a shared batch a few milliseconds apart — their own
//     think time, not an admission the service can see. This assumes
//     they think for less than BatchWindow; one that takes longer
//     misses the batch and costs the others the window.
//
// A caller alone with the service, however many statements it batches,
// meets neither after its circuit's first batch.
func (s *Service) batchLoop() {
	defer s.wg.Done()
	var (
		contended bool
		last      [32]byte // the circuit of the loop's last batch
	)
	for {
		j, err := s.queue.Pop(s.ctx)
		if err != nil {
			return
		}
		batch := []*job{j}
		var held time.Duration
		if s.cfg.BatchWindow > 0 && s.cfg.MaxBatch > 1 {
			setup := s.warm(j.entry)
			start := time.Now()
			deadline := start.Add(s.cfg.BatchWindow)
			var idle time.Time // until when the batch waits with nothing on its way
			switch {
			case contended && j.digest == last:
				idle = deadline
			case setup > 0:
				idle = start.Add(min(setup, s.cfg.BatchWindow))
			}
			batch = s.gather(batch, deadline, idle)
			held = time.Since(start)
		}
		s.met.observeHold(held)
		contended, last = s.runBatch(batch), j.digest
	}
}

// warm sets the circuit up on the backend, once, before the loop closes
// the circuit's first batch, and returns how long that took (0 once it
// is set up). A failed setup is left for the batch's ProveBatch to
// report.
func (s *Service) warm(e *circuitEntry) time.Duration {
	if e.warm.Load() {
		return 0
	}
	start := time.Now()
	if s.backend.Setup(s.ctx, e.circuit) == nil {
		e.warm.Store(true)
	}
	return time.Since(start)
}

// gather adds the batch's circuit's queued jobs to it, and waits for more
// while a submission is being admitted, until the deadline, or with
// nothing on its way until idle. Past both it proves at once.
func (s *Service) gather(batch []*job, deadline, idle time.Time) []*job {
	for len(batch) < s.cfg.MaxBatch {
		j, arrived, admitting := s.queue.collect(batch[0].digest)
		if j != nil {
			batch = append(batch, j)
			continue
		}
		until := idle
		if admitting {
			until = deadline
		}
		wait := time.Until(until)
		if wait <= 0 {
			break
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-arrived:
			// A push or an ended admission: look again. A non-matching
			// job stays queued for the next batch.
		case <-s.ctx.Done():
			timer.Stop()
			return batch
		}
		timer.Stop()
	}
	return batch
}

// metOthers reports whether a proved batch met other submitters of its
// circuit: its jobs, together with the circuit's jobs queued while it
// proved, came by more than one admission. One submitBatch is one
// admission however many batches its statements fill; replayed jobs
// came by none; other circuits' jobs do not count.
func (s *Service) metOthers(batch []*job) bool {
	var first *admission
	other := func(j *job) bool {
		if j.adm == nil {
			return false
		}
		if first == nil {
			first = j.adm
		}
		return j.adm != first
	}
	for _, j := range batch {
		if other(j) {
			return true
		}
	}
	return s.queue.anyQueued(batch[0].digest, other)
}

// runBatch drives one ProveBatch call and publishes per-job outcomes.
// Byte-identical statements (same circuit and witness digests) within the
// batch are proved once and share the result — the in-flight analogue of
// the proof cache, which they all missed because none had finished yet.
// It reports whether the batch met other submitters (metOthers), judged
// before any answer goes out: a request a client sends on its answer was
// not queued while the batch proved.
func (s *Service) runBatch(batch []*job) (met bool) {
	uniqueOf := make(map[cacheKey]int, len(batch))
	var jobs []BackendJob
	for _, j := range batch {
		j.setRunning()
		if _, ok := uniqueOf[j.witness]; !ok {
			uniqueOf[j.witness] = len(jobs)
			jobs = append(jobs, BackendJob{Circuit: j.entry.circuit, Assignment: j.assign})
		}
	}
	results := s.backend.ProveBatch(s.ctx, jobs)
	met = s.metOthers(batch)
	s.met.mu.Lock()
	s.met.batches++
	s.met.batchJobs += int64(len(batch))
	s.met.mu.Unlock()
	// Every terminal record of the batch goes to the store first, in one
	// Finish with one sync: once a client can read "done", a crash must
	// not regress the job to pending (replay would re-prove it: same
	// bytes, but double work and a window where a recorded ack is
	// missing). Transient cuts (shutdown, cancellation) leave no record,
	// so replay re-queues the job (see transientErr). A Finish that fails
	// answers every job of the batch retryably and caches nothing.
	type answer struct {
		j    *job
		err  error // the job's failure, or nil
		r    BackendResult
		blob []byte
		pub  [][]byte
	}
	answers := make([]answer, len(batch))
	var done []store.Result
	var failed []store.Failure
	for k, j := range batch {
		a := answer{j: j}
		if i := uniqueOf[j.witness]; i >= len(results) {
			a.err = errors.New("service: backend returned short results")
		} else if a.r = results[i]; a.r.Err != nil {
			a.err = a.r.Err
		} else if a.blob, a.err = a.r.Proof.MarshalBinary(); a.err != nil {
			a.err = fmt.Errorf("service: serializing proof: %w", a.err)
		} else {
			a.pub = encodeFrs(a.r.PublicInputs)
		}
		switch {
		case !j.persisted:
		case a.err == nil:
			done = append(done, store.Result{
				ID:           j.id,
				Circuit:      j.digest,
				Proof:        a.blob,
				PublicInputs: a.pub,
				ProverNS:     a.r.ProverTime.Nanoseconds(),
			})
		case !transientErr(a.err):
			failed = append(failed, store.Failure{ID: j.id, Msg: a.err.Error()})
		}
		answers[k] = a
	}
	if len(done)+len(failed) > 0 {
		if err := s.store.Finish(done, failed); err != nil {
			err = fmt.Errorf("%w: %v", errUnrecorded, err)
			for k := range answers {
				answers[k].err = err
			}
		}
	}
	// Metrics and cache update before finish(): closing a job's done
	// channel publishes it, so everything observable about the job must
	// already be in place. The prove-latency histogram sees each unique
	// proof once; per-job counters see every job.
	observed := make(map[cacheKey]bool, len(jobs))
	for _, a := range answers {
		j := a.j
		if a.err != nil {
			s.met.add(&s.met.jobsFailed, 1)
			s.met.observeTenant(j.tenantID, tenantFailed)
			j.fail(a.err)
			continue
		}
		steps := make(map[string]int64, len(a.r.Steps))
		for k, v := range a.r.Steps {
			steps[k] = v.Nanoseconds()
		}
		s.cache.Put(j.witness, &cacheEntry{proof: a.blob, public: a.r.PublicInputs})
		j.entry.mu.Lock()
		j.entry.proofs++
		j.entry.mu.Unlock()
		s.met.add(&s.met.jobsDone, 1)
		s.met.observeTenant(j.tenantID, tenantDone)
		if !observed[j.witness] {
			observed[j.witness] = true
			s.met.observeProve(a.r.ProverTime, a.r.Steps)
		}
		j.finish(api.ProveResponse{
			Status:       api.StatusDone,
			Proof:        a.blob,
			PublicInputs: a.pub,
			BatchSize:    len(batch),
			ProverNS:     a.r.ProverTime.Nanoseconds(),
			StepsNS:      steps,
		})
	}
	return met
}

// encodeFrs renders field elements as 32-byte big-endian blobs for JSON.
func encodeFrs(vs []ff.Fr) [][]byte {
	out := make([][]byte, len(vs))
	for i := range vs {
		b := vs[i].Bytes()
		out[i] = b[:]
	}
	return out
}
