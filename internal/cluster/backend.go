package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"zkspeed/internal/ff"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/service"
)

// Backend adapts a Coordinator to the service.Backend interface, so the
// service's queue can be drained by the whole cluster: ProveBatch ships
// the batch to a worker daemon and decodes the returned proofs; with no
// workers registered (or after the retry budget is spent on dying
// workers) it degrades to the local backend. Verify and Setup always run
// locally — they are cheap relative to proving and keep the coordinator
// able to answer verification with zero workers.
type Backend struct {
	coord *Coordinator
	local service.Backend
	logf  func(format string, args ...any)
}

// NewBackend wraps local with cluster dispatch through coord. The local
// backend must be built from coord.SetupSeed() so locally proved
// (fallback) proofs verify against the same SRS as worker proofs.
func NewBackend(coord *Coordinator, local service.Backend) *Backend {
	return &Backend{coord: coord, local: local, logf: coord.cfg.Logf}
}

// ProveBatch dispatches the batch to a worker, falling back to the local
// engine when the cluster cannot serve it. Every job shares one circuit:
// the service builds each batch from one job and its same-digest
// arrivals.
func (b *Backend) ProveBatch(ctx context.Context, jobs []service.BackendJob) []service.BackendResult {
	if len(jobs) == 0 {
		return nil
	}
	if b.coord.WorkerCount() == 0 {
		b.coord.noteLocalFallback()
		return b.local.ProveBatch(ctx, jobs)
	}
	circuit := jobs[0].Circuit
	digest := circuit.Digest()
	witnesses := make([][]byte, len(jobs))
	for i, j := range jobs {
		blob, err := j.Assignment.MarshalBinary()
		if err != nil {
			return failBatch(len(jobs), fmt.Errorf("cluster: serializing witness: %w", err))
		}
		witnesses[i] = blob
	}
	results, err := b.coord.Dispatch(ctx, digest, circuit.MarshalBinary, witnesses)
	if err != nil {
		if errors.Is(err, ErrNoWorkers) {
			// The cluster emptied out (possibly mid-retry): prove locally
			// rather than failing jobs a single-process service would serve.
			b.coord.noteLocalFallback()
			b.logf("cluster: no workers for %d-statement batch, proving locally", len(jobs))
			return b.local.ProveBatch(ctx, jobs)
		}
		return failBatch(len(jobs), err)
	}
	out := make([]service.BackendResult, len(jobs))
	for i, jr := range results {
		out[i] = decodeResult(jr)
	}
	return out
}

// decodeResult turns one wire jobResult into a BackendResult. The raw
// ZKSP blob is preserved in ProofBlob so the service can return the
// worker's bytes untouched (cluster proofs stay byte-identical to local
// ones even if proof encoding were ever non-canonical).
func decodeResult(jr jobResult) service.BackendResult {
	if jr.Err != "" {
		return service.BackendResult{Err: errors.New(jr.Err)}
	}
	var proof hyperplonk.Proof
	if err := proof.UnmarshalBinary(jr.Proof); err != nil {
		return service.BackendResult{Err: fmt.Errorf("cluster: decoding proof: %w", err)}
	}
	pub := make([]ff.Fr, len(jr.Public))
	for i, p := range jr.Public {
		pub[i].SetBytes(p)
	}
	r := service.BackendResult{
		Proof:        &proof,
		ProofBlob:    jr.Proof,
		PublicInputs: pub,
		ProverTime:   time.Duration(jr.ProverNS),
	}
	if len(jr.StepsNS) > 0 {
		r.Steps = make(map[string]time.Duration, len(jr.StepsNS))
		for k, v := range jr.StepsNS {
			r.Steps[k] = time.Duration(v)
		}
	}
	return r
}

func failBatch(n int, err error) []service.BackendResult {
	out := make([]service.BackendResult, n)
	for i := range out {
		out[i].Err = err
	}
	return out
}

// Verify runs locally: the coordinator's engine shares the cluster SRS.
func (b *Backend) Verify(ctx context.Context, c *hyperplonk.Circuit, pub []ff.Fr, proof *hyperplonk.Proof) error {
	return b.local.Verify(ctx, c, pub, proof)
}

// Setup warms the local engine (the fallback path); workers warm their
// own caches on first dispatch.
func (b *Backend) Setup(ctx context.Context, c *hyperplonk.Circuit) error {
	return b.local.Setup(ctx, c)
}

// Scheme reports the local engine's commitment scheme; the coordinator
// refuses workers advertising a different one, so local and remote
// proofs are interchangeable.
func (b *Backend) Scheme() string {
	return b.local.Scheme()
}

// Stats reports the local engine's counters (remote work shows up in the
// coordinator's ClusterStatus instead).
func (b *Backend) Stats() service.BackendStats {
	return b.local.Stats()
}
