package zkspeed

import (
	crand "crypto/rand"
	"io"
	"math/rand"
	"runtime"
)

// engineConfig is the resolved option set of an Engine.
type engineConfig struct {
	entropy     io.Reader
	parallelism int
	timings     bool
	preloadSRS  *SRS
	proveHook   func(ProofStats)
	// scheme names the polynomial commitment backend ("pst", "zeromorph");
	// empty selects PST. Parsed lazily so an unknown name surfaces as an
	// error from the first operation, not a constructor panic.
	scheme string
}

func defaultEngineConfig() engineConfig {
	return engineConfig{
		entropy:     crand.Reader,
		parallelism: runtime.GOMAXPROCS(0),
	}
}

// Option configures an Engine at construction time.
type Option func(*engineConfig)

// WithParallelism bounds each level of the Engine's parallelism to n:
// the ProveBatch worker pool runs at most n concurrent proofs, and n is
// the goroutine budget of the one execution context (poly.Options) every
// kernel inside a proof or verification runs under — MSMs, sumchecks and
// MLE kernels alike. The caps compose — a batch of proofs can occupy up to
// n×n goroutines; callers sharing a box with other work should size n for
// that product. Values below 1 fall back to the default (one worker per
// CPU).
func WithParallelism(n int) Option {
	return func(c *engineConfig) {
		if n >= 1 {
			c.parallelism = n
		}
	}
}

// WithEntropy sets the entropy source for the simulated trusted-setup
// ceremony. The default is crypto/rand; tests pass SeededEntropy for
// reproducible SRSs.
func WithEntropy(r io.Reader) Option {
	return func(c *engineConfig) {
		if r != nil {
			c.entropy = r
		}
	}
}

// WithTimings enables the per-step wall-clock breakdown on every proof
// (ProofResult.Timings); off by default.
func WithTimings() Option {
	return func(c *engineConfig) { c.timings = true }
}

// WithSRS preloads an existing universal SRS — the reuse hook for sharing
// one ceremony across Engines or processes. The preloaded SRS serves every
// circuit of its size; other sizes derive from the Engine's entropy as
// usual.
func WithSRS(srs *SRS) Option {
	return func(c *engineConfig) { c.preloadSRS = srs }
}

// WithPCSScheme selects the polynomial commitment backend by name —
// "pst" (default; PST multilinear KZG) or "zeromorph" (univariate-map
// KZG with cheap shifted openings). The name is validated lazily: an
// unknown scheme surfaces from the first Setup/Prove call as the same
// error PCSSchemes-listing callers see, so services can report it as a
// client error instead of panicking at construction.
func WithPCSScheme(name string) Option {
	return func(c *engineConfig) { c.scheme = name }
}

// WithProveHook installs a callback invoked (synchronously, on the
// proving goroutine) with the measured stats of every successful proof —
// the queue/observability hook the proving service and daemons use to
// meter throughput without wrapping every call site. The hook must be
// safe for concurrent use; ProveBatch workers fire it in parallel.
func WithProveHook(fn func(ProofStats)) Option {
	return func(c *engineConfig) { c.proveHook = fn }
}

// SeededEntropy returns a deterministic entropy stream derived from seed,
// for reproducible setup ceremonies in tests and examples. Not for
// production use.
func SeededEntropy(seed int64) io.Reader {
	return rand.New(rand.NewSource(seed))
}
