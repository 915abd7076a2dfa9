package zkspeed

// Public surface of the proving service. The service itself lives in
// internal/service (queue, batch windows, proof cache, HTTP handlers);
// this file re-exports it and contributes the Engine-backed backend
// construction, which must be built here because internal/service cannot
// import the root package. cmd/zkproverd and the zkspeed/client package
// compile against this surface (plus the zkspeed/api wire types) alone.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"zkspeed/internal/pcs"
	"zkspeed/internal/service"
	"zkspeed/internal/store"
	"zkspeed/internal/tenant"
)

// ProverService is a proving service: one Engine behind a bounded
// priority queue with backpressure, drained by batch loops whose
// batch-accumulation window coalesces same-circuit jobs into ProveBatch
// calls, an LRU proof cache keyed by (circuit digest, witness digest), and
// an HTTP/JSON API (Handler). Construct with NewService; Close releases
// the batch loops.
type ProverService = service.Service

// ServiceBackendStats are the service Engine's counters
// (ProverService.BackendStats) — how many SRS ceremonies, key setups and
// proofs the service's engine actually ran, the observable half of the
// amortization story.
type ServiceBackendStats = service.BackendStats

// ServiceOverloadedError is returned (wrapped) by the submit paths when
// the job queue is full; the HTTP layer renders it as 429 + Retry-After.
type ServiceOverloadedError = service.OverloadedError

// ServiceRecoveryStats describes what a durable-store service replayed
// at startup (ProverService.Recovery): re-registered circuits, re-queued
// jobs, restored results and failures.
type ServiceRecoveryStats = service.RecoveryStats

// ServiceConfig tunes a ProverService. The zero value selects the
// documented defaults.
type ServiceConfig struct {
	// Shards is the number of batch loops draining the one job queue into
	// the one Engine, each proving one batch at a time. Default 1.
	Shards int
	// QueueCapacity bounds the job queue; a full queue rejects with 429 +
	// Retry-After instead of growing. Default 64.
	QueueCapacity int
	// BatchWindow is how long a loop holds the first job of a batch
	// while same-circuit jobs accumulate behind it, sharing one setup and
	// one ProveBatch call. 0 selects the 5ms default; negative disables
	// coalescing.
	BatchWindow time.Duration
	// MaxBatch caps jobs per ProveBatch call. Default 16.
	MaxBatch int
	// CacheSize is the LRU proof-cache capacity in entries; negative
	// disables caching. Default 256.
	CacheSize int
	// JobRetention is how many finished jobs stay pollable via
	// GET /v1/jobs/{id}. Default 1024.
	JobRetention int
	// MaxBodyBytes bounds HTTP request bodies. Default 512 MiB.
	MaxBodyBytes int64
	// MaxCircuits bounds the circuit registry (decoded circuit tables are
	// large, so registrations must reject rather than grow without
	// limit). Default 4096.
	MaxCircuits int
	// StoreDir, when non-empty, makes the service durable: every job
	// lifecycle transition (and every circuit blob) is recorded in an
	// append-only, checksummed, segmented write-ahead log under this
	// directory. On startup the log is replayed — circuits re-register,
	// jobs a previous incarnation acknowledged but never finished re-queue
	// under their original ids, completed results stay pollable — and on
	// shutdown queued jobs drain to the store instead of failing. Empty
	// keeps jobs in process memory only.
	StoreDir string
	// StoreSync tunes the WAL fsync policy: 0 syncs every append
	// (safest), >0 batches syncs at that interval, <0 leaves flushing to
	// the OS. Ignored without StoreDir.
	StoreSync time.Duration
	// TenantsFile, when non-empty, is a JSON tenants file ({"tenants":
	// [{"id", "key", quotas...}]}) enabling API-key authentication,
	// per-tenant quotas, and fair-share scheduling on the /v1 endpoints.
	TenantsFile string
}

// NewService builds a ProverService over one Engine constructed with the
// given options (WithTimings is always added — the service's /metrics
// decomposes proving time by protocol step) and drained by cfg.Shards
// batch loops. The Engine is concurrency-safe and single-flights its SRS
// ceremonies and key preprocessing, so every loop shares one universal
// setup and one key set per circuit, and one Preload warms them all.
func NewService(cfg ServiceConfig, opts ...Option) (*ProverService, error) {
	// Resolve the caller's options once: the scheme check and the setup
	// seed below read them before any Engine exists.
	probe := defaultEngineConfig()
	for _, o := range opts {
		o(&probe)
	}
	// Reject an unknown WithPCSScheme name up front: a daemon that only
	// fails on its first prove is much harder to operate than one that
	// refuses to start.
	if _, err := pcs.ParseScheme(probe.scheme); err != nil {
		return nil, fmt.Errorf("zkspeed: %w (known schemes: %v)", err, PCSSchemes())
	}
	svcCfg := service.Config{
		QueueCapacity: cfg.QueueCapacity,
		BatchWindow:   cfg.BatchWindow,
		MaxBatch:      cfg.MaxBatch,
		CacheSize:     cfg.CacheSize,
		JobRetention:  cfg.JobRetention,
		MaxBodyBytes:  cfg.MaxBodyBytes,
		MaxCircuits:   cfg.MaxCircuits,
	}
	if cfg.StoreDir != "" {
		wal, err := store.OpenWAL(store.WALConfig{
			Dir:          cfg.StoreDir,
			SyncInterval: cfg.StoreSync,
			Retention:    cfg.JobRetention,
		})
		if err != nil {
			return nil, fmt.Errorf("zkspeed: opening job store: %w", err)
		}
		svcCfg.Store = wal
	}
	// service.New takes ownership of the store only on success; every
	// error return between here and there must close it (closeStore).
	if cfg.TenantsFile != "" {
		tcfgs, err := tenant.LoadFile(cfg.TenantsFile)
		if err != nil {
			closeStore(svcCfg.Store)
			return nil, err
		}
		reg, err := tenant.NewRegistry(tcfgs)
		if err != nil {
			closeStore(svcCfg.Store)
			return nil, err
		}
		svcCfg.Tenants = reg
	}

	// Pre-read the 64-byte seed the Engine derives every SRS from and hand
	// it over as a byte reader: a daemon with a broken entropy source then
	// refuses to start, like an unknown scheme above, instead of failing
	// its first ceremony, and the SRS bytes are the same either way.
	seed := make([]byte, 64)
	if _, err := io.ReadFull(probe.entropy, seed); err != nil {
		closeStore(svcCfg.Store)
		return nil, fmt.Errorf("zkspeed: reading setup entropy: %w", err)
	}

	engOpts := append(append([]Option{}, opts...), WithEntropy(bytes.NewReader(seed)), WithTimings())
	svc, err := service.New(svcCfg, &engineBackend{eng: New(engOpts...)}, cfg.Shards)
	if err != nil {
		closeStore(svcCfg.Store)
		return nil, err
	}
	return svc, nil
}

// closeStore releases a store that never reached a successfully built
// service (which would otherwise own and close it).
func closeStore(st store.Store) {
	if st != nil {
		st.Close()
	}
}

// engineBackend adapts an *Engine to the service's Backend interface.
type engineBackend struct {
	eng *Engine
}

func (b *engineBackend) ProveBatch(ctx context.Context, jobs []service.BackendJob) []service.BackendResult {
	pjobs := make([]ProofJob, len(jobs))
	for i, j := range jobs {
		pjobs[i] = ProofJob{Circuit: j.Circuit, Assignment: j.Assignment}
	}
	// The batch-level context error, if any, is already reflected in the
	// per-job errors the service reports individually.
	results, _ := b.eng.ProveBatch(ctx, pjobs)
	out := make([]service.BackendResult, len(jobs))
	for i, r := range results {
		if r.Err != nil {
			out[i] = service.BackendResult{Err: r.Err}
			continue
		}
		out[i] = service.BackendResult{
			Proof:        r.Result.Proof,
			PublicInputs: r.Result.PublicInputs,
			ProverTime:   r.Result.Stats.ProverTime,
			Steps:        r.Result.StepBreakdown(),
		}
	}
	return out
}

func (b *engineBackend) Verify(ctx context.Context, c *Circuit, pub []Scalar, proof *Proof) error {
	return b.eng.Verify(ctx, c, pub, proof)
}

func (b *engineBackend) Setup(ctx context.Context, c *Circuit) error {
	_, _, err := b.eng.Setup(ctx, c)
	return err
}

// Scheme reports the engine's commitment scheme, the name the service
// advertises in the API.
func (b *engineBackend) Scheme() string {
	return b.eng.PCSScheme()
}

func (b *engineBackend) Stats() service.BackendStats {
	st := b.eng.Stats()
	return service.BackendStats{
		SRSSetups:    st.SRSSetups,
		KeySetups:    st.KeySetups,
		KeyCacheHits: st.KeyCacheHits,
		Proofs:       st.Proofs,
		Verifies:     st.Verifies,
	}
}
