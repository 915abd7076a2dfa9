package zkspeed

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/poly"
	"zkspeed/internal/sim"
)

// Engine is a reusable prover/verifier session. It owns a cache of
// universal SRSs (one per problem size) and of per-circuit proving and
// verifying keys (keyed by circuit digest), so repeated proofs of the same
// circuit — and proofs of different circuits of the same size — skip the
// expensive setup work. This is HyperPlonk's one-time-setup property (§1
// of the paper) surfaced as API shape: setup happens at most once per
// relation for the lifetime of the Engine.
//
// An Engine is safe for concurrent use. All long-running operations accept
// a context.Context and abort within one protocol step when it is
// cancelled.
type Engine struct {
	cfg engineConfig
	// exec is the execution context of every proof and verification: the
	// WithParallelism budget and the Engine's scratch arena, which keeps
	// per-proof fold buffers and worker scratch warm across proofs instead
	// of hitting the allocator (poly.Scratch is concurrency-safe, so batch
	// workers share it).
	exec poly.Options

	mu      sync.Mutex
	seed    []byte                // master ceremony seed, read lazily from cfg.entropy
	seedErr error                 // sticky entropy-read failure
	srs     map[srsKey]*srsEntry  // universal setup per (problem size, scheme)
	keys    map[keysKey]*keyEntry // preprocessed keys per (circuit digest, scheme)
	digests map[*Circuit][32]byte // memoized circuit digests (O(2^mu) to hash)
	st      EngineStats
}

// srsKey identifies one universal setup: circuits of one size under one
// commitment scheme. Distinct schemes derive independent ceremonies from
// the same master seed (scheme-specific transcript labels), so the cache
// must never alias them.
type srsKey struct {
	mu     int
	scheme pcs.Scheme
}

// keysKey identifies one preprocessing: a circuit digest under one
// commitment scheme. The same circuit preprocessed under two schemes
// yields different selector commitments, hence two cache slots.
type keysKey struct {
	digest [32]byte
	scheme pcs.Scheme
}

// srsEntry is a singleflight slot for one problem size's ceremony, so the
// (seconds-long at large sizes) SRS derivation never runs under the Engine
// lock and concurrent same-size callers wait for a single derivation.
type srsEntry struct {
	done chan struct{}
	s    pcs.PCS
	err  error
}

type circuitKeys struct {
	pk *ProvingKey
	vk *VerifyingKey
}

// keyEntry is a singleflight slot in the key cache: the creator closes
// done when setup finishes, so concurrent proofs of the same circuit wait
// for one preprocessing instead of repeating it — without holding the
// Engine lock across the (potentially seconds-long) setup.
type keyEntry struct {
	done chan struct{}
	k    *circuitKeys
	err  error
}

// EngineStats counts the work an Engine has performed — primarily a
// visibility hook for the caching behaviour (a second proof of the same
// circuit must not increment SRSSetups or KeySetups).
type EngineStats struct {
	// SRSSetups counts simulated trusted-setup ceremonies run.
	SRSSetups int
	// KeySetups counts circuit preprocessings (selector/σ commitments).
	KeySetups int
	// KeyCacheHits counts proofs/verifies served from the key cache.
	KeyCacheHits int
	// Proofs and Verifies count completed operations.
	Proofs   int
	Verifies int
}

// New constructs an Engine. With no options it uses crypto/rand entropy,
// one proving worker per CPU for batches, enabled SRS/key caching, and no
// per-step timing collection.
func New(opts ...Option) *Engine {
	e := &Engine{
		cfg:     defaultEngineConfig(),
		srs:     make(map[srsKey]*srsEntry),
		keys:    make(map[keysKey]*keyEntry),
		digests: make(map[*Circuit][32]byte),
	}
	for _, o := range opts {
		o(&e.cfg)
	}
	e.exec = poly.Options{Procs: e.cfg.parallelism, Scratch: poly.NewScratch()}
	return e
}

// Stats returns a snapshot of the Engine's work counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.st
}

// WarmSRS pre-derives the Engine's universal setup for one problem size
// under the Engine's configured scheme, so a benchmark or a caller can
// pay the ceremony before its first timed proof.
func (e *Engine) WarmSRS(ctx context.Context, mu int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	_, err := e.srsFor(ctx, mu)
	return err
}

// pcsScheme resolves the Engine's configured commitment scheme
// (WithPCSScheme); the zero config selects PST.
func (e *Engine) pcsScheme() (pcs.Scheme, error) {
	return pcs.ParseScheme(e.cfg.scheme)
}

// PCSScheme reports the scheme name the Engine commits under — what the
// service advertises in circuit registrations.
func (e *Engine) PCSScheme() string {
	s, err := e.pcsScheme()
	if err != nil {
		return e.cfg.scheme
	}
	return s.String()
}

// masterSeed lazily reads the 64-byte ceremony seed from the entropy
// source. The read failure is sticky: a broken entropy source fails every
// subsequent setup the same way.
func (e *Engine) masterSeed() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.seed == nil && e.seedErr == nil {
		buf := make([]byte, 64)
		if _, err := io.ReadFull(e.cfg.entropy, buf); err != nil {
			e.seedErr = fmt.Errorf("zkspeed: reading setup entropy: %w", err)
		} else {
			e.seed = buf
		}
	}
	return e.seed, e.seedErr
}

// srsFor returns (deriving if needed) the SRS for mu. The ceremony is
// derived deterministically from the Engine's master seed; concurrent
// same-size callers singleflight on one derivation, which runs outside the
// Engine lock so other operations never stall behind it.
func (e *Engine) srsFor(ctx context.Context, mu int) (pcs.PCS, error) {
	scheme, err := e.pcsScheme()
	if err != nil {
		return nil, err
	}
	// A preloaded SRS (WithSRS) is a concrete PST ceremony; it only
	// short-circuits when the Engine actually commits under PST.
	if p := e.cfg.preloadSRS; p != nil && scheme == pcs.SchemePST && p.Mu == mu {
		return p, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := srsKey{mu: mu, scheme: scheme}
	for {
		e.mu.Lock()
		if entry, ok := e.srs[key]; ok {
			e.mu.Unlock()
			select {
			case <-entry.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if entry.err == nil {
				return entry.s, nil
			}
			// Creator failed (possibly its own cancelled context): evict
			// the dead entry and retry under our context.
			e.mu.Lock()
			if cur, ok := e.srs[key]; ok && cur == entry {
				delete(e.srs, key)
			}
			e.mu.Unlock()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			continue
		}
		entry := &srsEntry{done: make(chan struct{})}
		e.srs[key] = entry
		e.mu.Unlock()
		seed, err := e.masterSeed()
		if err == nil {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			} else {
				entry.s, err = pcs.NewBackend(scheme, seed, mu)
			}
		}
		entry.err = err
		close(entry.done)
		e.mu.Lock()
		if err != nil {
			if cur, ok := e.srs[key]; ok && cur == entry {
				delete(e.srs, key)
			}
			e.mu.Unlock()
			return nil, err
		}
		e.st.SRSSetups++
		e.mu.Unlock()
		return entry.s, nil
	}
}

// keysFor returns the preprocessed keys for the circuit, reusing the cache
// when the circuit digest is known. The bool reports whether the keys came
// from cache. The context is checked before each setup stage so a
// cancelled caller does not pay for the ceremony or the preprocessing.
//
// Concurrent callers of the same circuit singleflight on a keyEntry; the
// SRS derivation and the per-circuit preprocessing both run outside the
// Engine lock, so cached proofs and Stats never stall behind a setup.
func (e *Engine) keysFor(ctx context.Context, circuit *Circuit) (*circuitKeys, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	scheme, err := e.pcsScheme()
	if err != nil {
		return nil, false, err
	}
	key := keysKey{digest: e.CircuitDigest(circuit), scheme: scheme}
	e.mu.Lock()
	for {
		if entry, ok := e.keys[key]; ok {
			e.mu.Unlock()
			select {
			case <-entry.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if entry.err == nil {
				e.mu.Lock()
				e.st.KeyCacheHits++
				e.mu.Unlock()
				return entry.k, true, nil
			}
			// The creator failed — possibly on its own cancelled context.
			// Evict the dead entry and retry under our context.
			e.mu.Lock()
			if cur, ok := e.keys[key]; ok && cur == entry {
				delete(e.keys, key)
			}
			if err := ctx.Err(); err != nil {
				e.mu.Unlock()
				return nil, false, err
			}
			continue
		}

		// We are the creator: publish the in-flight entry, then derive the
		// SRS and preprocess outside the lock.
		entry := &keyEntry{done: make(chan struct{})}
		e.keys[key] = entry
		e.mu.Unlock()
		srs, err := e.srsFor(ctx, circuit.Mu)
		if err == nil {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			} else {
				var pk *ProvingKey
				var vk *VerifyingKey
				pk, vk, err = hyperplonk.SetupWithPCS(circuit, srs)
				if err == nil {
					entry.k = &circuitKeys{pk: pk, vk: vk}
				}
			}
		}
		entry.err = err
		close(entry.done)
		e.mu.Lock()
		if err != nil {
			if cur, ok := e.keys[key]; ok && cur == entry {
				delete(e.keys, key)
			}
			e.mu.Unlock()
			return nil, false, err
		}
		e.st.KeySetups++
		e.mu.Unlock()
		return entry.k, false, nil
	}
}

// Setup preprocesses a circuit under the Engine's cached universal SRS and
// returns its keys. Prove and Verify call this implicitly; it is exposed
// for callers that hand keys to another process. Cancelling the context
// aborts before the ceremony and before the preprocessing.
func (e *Engine) Setup(ctx context.Context, circuit *Circuit) (*ProvingKey, *VerifyingKey, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k, _, err := e.keysFor(ctx, circuit)
	if err != nil {
		return nil, nil, err
	}
	return k.pk, k.vk, nil
}

// ProofResult bundles everything one Prove call produced.
type ProofResult struct {
	Proof *Proof
	// Timings is the per-step wall-clock breakdown; nil unless the Engine
	// was built WithTimings().
	Timings *StepTimings
	// PublicInputs are extracted from the assignment for convenient
	// verification.
	PublicInputs []Scalar
	// Stats feeds Engine.Estimate to couple this measured proof with a
	// predicted accelerator latency.
	Stats ProofStats
}

// ProofStats is the measured shape of one proof — the functional-side
// facts the modeling side needs.
type ProofStats struct {
	Mu         int
	NumGates   int
	NumPublic  int
	ProofBytes int
	// ProverTime is the measured CPU proving latency (setup excluded).
	ProverTime time.Duration
	// SetupCached reports whether this proof reused cached keys.
	SetupCached bool
}

// Prove generates a proof for the assignment, running setup at most once
// per circuit. Cancelling the context aborts the proof within one protocol
// step and returns ctx.Err().
func (e *Engine) Prove(ctx context.Context, circuit *Circuit, assignment *Assignment) (*ProofResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	k, cached, err := e.keysFor(ctx, circuit)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	proof, tm, err := hyperplonk.ProveWithContext(ctx, k.pk, assignment,
		&hyperplonk.ProveOptions{CollectTimings: e.cfg.timings, Exec: e.exec})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.st.Proofs++
	e.mu.Unlock()
	res := &ProofResult{
		Proof:        proof,
		Timings:      tm,
		PublicInputs: circuit.PublicInputs(assignment),
		Stats: ProofStats{
			Mu:          circuit.Mu,
			NumGates:    circuit.NumGates(),
			NumPublic:   circuit.NumPublic,
			ProofBytes:  proof.ProofSizeBytes(),
			ProverTime:  time.Since(start),
			SetupCached: cached,
		},
	}
	if e.cfg.proveHook != nil {
		e.cfg.proveHook(res.Stats)
	}
	return res, nil
}

// CircuitDigest returns the Engine's memoized digest for the circuit —
// the key its SRS/key caches (keysFor goes through here) and the proving
// service's registry and routing all share. Computing it is an O(2^mu)
// SHA3 pass, so the first computation happens outside the lock (it is
// pure, so a concurrent duplicate is merely redundant); callers that need
// it repeatedly should go through here rather than Circuit.Digest.
func (e *Engine) CircuitDigest(circuit *Circuit) [32]byte {
	e.mu.Lock()
	d, ok := e.digests[circuit]
	e.mu.Unlock()
	if ok {
		return d
	}
	d = circuit.Digest()
	e.mu.Lock()
	e.digests[circuit] = d
	e.mu.Unlock()
	return d
}

// StepBreakdown returns the proof's per-protocol-step wall-clock times
// keyed by stable step names (witness_commit; wire_identity, the φ and π
// commitments; gate_identity, the one zero-check of the gate and wiring
// identities; batch_evals; poly_open), or nil when the Engine was not built
// WithTimings(). The benchmark harness stores this decomposition in each
// end-to-end record's steps_ns field.
func (r *ProofResult) StepBreakdown() map[string]time.Duration {
	return r.Timings.Map()
}

// ProofJob is one unit of work for ProveBatch.
type ProofJob struct {
	Circuit    *Circuit
	Assignment *Assignment
}

// BatchResult is the outcome of one ProveBatch job, in job order.
type BatchResult struct {
	Job    int
	Result *ProofResult
	Err    error
}

// ProveBatch proves the jobs concurrently on the Engine's worker pool
// (WithParallelism). Setup is shared: jobs over the same circuit reuse one
// key preprocessing, and jobs of the same size reuse one SRS ceremony.
// Per-job failures land in BatchResult.Err; the returned error is non-nil
// only when the context was cancelled and at least one job was cut short,
// in which case the affected jobs carry ctx.Err().
func (e *Engine) ProveBatch(ctx context.Context, jobs []ProofJob) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(jobs))
	nw := e.cfg.parallelism
	if nw > len(jobs) {
		nw = len(jobs)
	}
	if nw < 1 {
		nw = 1
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(jobs) {
					return
				}
				if err := ctx.Err(); err != nil {
					out[i] = BatchResult{Job: i, Err: err}
					continue
				}
				res, err := e.Prove(ctx, jobs[i].Circuit, jobs[i].Assignment)
				out[i] = BatchResult{Job: i, Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	// A cancellation that lands after the last job finished is not a
	// batch failure: report ctx.Err() only when it actually cut a job
	// short. Other per-job failures stay in the results alone.
	if err := ctx.Err(); err != nil {
		for _, r := range out {
			if errors.Is(r.Err, err) {
				return out, err
			}
		}
	}
	return out, nil
}

// Verify checks a proof against the circuit's cached verifying key and the
// public inputs.
func (e *Engine) Verify(ctx context.Context, circuit *Circuit, pub []Scalar, proof *Proof) error {
	if ctx == nil {
		ctx = context.Background()
	}
	k, _, err := e.keysFor(ctx, circuit)
	if err != nil {
		return err
	}
	return e.VerifyWithKey(ctx, k.vk, pub, proof)
}

// VerifyWithKey checks a proof against an explicit verifying key — the
// path for verifiers that received vk out of band and never saw the
// circuit.
func (e *Engine) VerifyWithKey(ctx context.Context, vk *VerifyingKey, pub []Scalar, proof *Proof) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := hyperplonk.VerifyWithContext(ctx, vk, pub, proof,
		&hyperplonk.VerifyOptions{Exec: e.exec}); err != nil {
		return err
	}
	e.mu.Lock()
	e.st.Verifies++
	e.mu.Unlock()
	return nil
}

// HardwareEstimate couples a measured proof with the zkSpeed accelerator
// model: the predicted latency of the same proof on a given design point,
// next to the CPU baseline and (when available) the measured CPU time.
type HardwareEstimate struct {
	Design DesignConfig
	Sim    SimResult
	// PredictedMS is the modeled zkSpeed latency for this proof size.
	PredictedMS float64
	// CPUBaselineMS is the paper's calibrated CPU-baseline latency.
	CPUBaselineMS float64
	// MeasuredMS is the proof's measured CPU time (0 when unknown).
	MeasuredMS float64
	// SpeedupVsCPU is CPUBaselineMS / PredictedMS — the paper's headline
	// metric (801× geomean for the highlighted design).
	SpeedupVsCPU float64
	// SpeedupVsMeasured is MeasuredMS / PredictedMS (0 when unknown).
	SpeedupVsMeasured float64
}

// Estimate predicts how the proof described by stats would perform on the
// given accelerator design point — the prove-then-estimate flow that
// unifies the repository's functional and modeling sides. It is the
// method form of the package-level Estimate for fluent use next to
// Prove; the Engine's state does not influence the prediction.
func (e *Engine) Estimate(stats ProofStats, design DesignConfig) HardwareEstimate {
	return Estimate(stats, design)
}

// Estimate predicts how the proof described by stats would perform on the
// given accelerator design point. stats needs only Mu for a prediction;
// a measured ProverTime additionally yields SpeedupVsMeasured.
func Estimate(stats ProofStats, design DesignConfig) HardwareEstimate {
	res := sim.Simulate(design, stats.Mu)
	est := HardwareEstimate{
		Design:        design,
		Sim:           res,
		PredictedMS:   res.Milliseconds(),
		CPUBaselineMS: sim.CPUTimeMS(stats.Mu),
	}
	if stats.ProverTime > 0 {
		est.MeasuredMS = float64(stats.ProverTime) / float64(time.Millisecond)
	}
	if est.PredictedMS > 0 {
		est.SpeedupVsCPU = est.CPUBaselineMS / est.PredictedMS
		est.SpeedupVsMeasured = est.MeasuredMS / est.PredictedMS
	}
	return est
}
