// Package tenant is zkproverd's multi-tenant admission tier: API-key
// authentication plus per-tenant quotas. A tenants file (JSON) declares
// each tenant's key and limits; the registry authenticates request keys
// and each Tenant enforces its own quotas — max in-flight jobs, a
// requests/second token bucket, a witness-upload byte budget, and a hard
// per-request witness size cap. Quota refusals carry a machine-readable
// kind and a Retry-After hint so the HTTP layer can map them onto the
// 401/403/429 error matrix and clients can back off intelligently.
//
// Fair-share scheduling between authenticated tenants (deficit round
// robin over the service's queue) lives in internal/service;
// this package only decides who a request belongs to and whether it may
// enter the system at all.
package tenant

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// Config declares one tenant in the tenants file. A zero quota field
// means unlimited; keys must be unique and non-empty.
type Config struct {
	// ID names the tenant in metrics and logs; unique.
	ID string `json:"id"`
	// Key is the API key clients present (Authorization: Bearer <key>
	// or X-API-Key). Compared verbatim; unique across tenants.
	Key string `json:"key"`
	// Disabled rejects the key with a 403-mapped error while keeping
	// the tenant's history in metrics — revocation without deletion.
	Disabled bool `json:"disabled,omitempty"`
	// MaxInflight caps jobs submitted but not yet terminal (queued or
	// proving). 0 = unlimited.
	MaxInflight int `json:"max_inflight,omitempty"`
	// RequestsPerSec refills the request token bucket; Burst is its
	// capacity (defaults to max(1, ceil(RequestsPerSec))). 0 = unlimited.
	RequestsPerSec float64 `json:"requests_per_sec,omitempty"`
	Burst          int     `json:"burst,omitempty"`
	// WitnessBytesPerSec refills the upload byte bucket; BytesBurst is
	// its capacity (defaults to 4× the per-second rate). 0 = unlimited.
	WitnessBytesPerSec int64 `json:"witness_bytes_per_sec,omitempty"`
	BytesBurst         int64 `json:"bytes_burst,omitempty"`
	// MaxWitnessBytes caps a single witness upload. 0 = service default.
	MaxWitnessBytes int64 `json:"max_witness_bytes,omitempty"`
}

// File is the tenants file schema: {"tenants": [...]}.
type File struct {
	Tenants []Config `json:"tenants"`
}

// Authentication errors. The HTTP layer maps ErrNoKey and ErrUnknownKey
// to 401 and ErrDisabled to 403.
var (
	ErrNoKey      = errors.New("tenant: missing API key")
	ErrUnknownKey = errors.New("tenant: unknown API key")
	ErrDisabled   = errors.New("tenant: key disabled")
)

// Kind classifies a quota refusal.
type Kind string

const (
	// KindInflight: the tenant is at MaxInflight unfinished jobs.
	KindInflight Kind = "inflight"
	// KindRate: the requests/sec bucket is empty.
	KindRate Kind = "rate"
	// KindBytes: the witness-bytes/sec bucket cannot cover the upload.
	KindBytes Kind = "bytes"
	// KindWitnessSize: a single upload exceeds MaxWitnessBytes. Not
	// retryable — the request itself is too large.
	KindWitnessSize Kind = "witness-size"
)

// QuotaError is a quota refusal: which limit tripped and how long until
// retrying could succeed (0 for KindInflight, where the trigger is a job
// finishing, and KindWitnessSize, where retrying never helps).
type QuotaError struct {
	Tenant     string
	Kind       Kind
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %s: %s quota exceeded", e.Tenant, e.Kind)
}

// Retryable reports whether backing off can clear the refusal.
func (e *QuotaError) Retryable() bool { return e.Kind != KindWitnessSize }

// bucket is a token bucket refilled continuously at rate/sec up to
// burst, timed by an injected clock so tests don't sleep.
type bucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate, burst float64, now time.Time) *bucket {
	return &bucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// take withdraws n tokens if available; otherwise reports how long until
// they will be.
func (b *bucket) take(now time.Time, n float64) (bool, time.Duration) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
		b.last = now
	}
	if b.tokens >= n {
		b.tokens -= n
		return true, 0
	}
	need := n - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// Tenant is one authenticated tenant's runtime state: its config plus
// the mutable quota counters. Safe for concurrent use.
type Tenant struct {
	cfg   Config
	clock func() time.Time

	mu       sync.Mutex
	inflight int
	reqs     *bucket // nil = unlimited
	bytes    *bucket
	rejected map[Kind]int64
	admitted int64
}

// ID returns the tenant's configured id.
func (t *Tenant) ID() string { return t.cfg.ID }

func (t *Tenant) quotaErr(k Kind, retry time.Duration) error {
	t.rejected[k]++
	return &QuotaError{Tenant: t.cfg.ID, Kind: k, RetryAfter: retry}
}

// AdmitRequest charges one request against the rate bucket.
func (t *Tenant) AdmitRequest() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.reqs != nil {
		if ok, retry := t.reqs.take(t.clock(), 1); !ok {
			return t.quotaErr(KindRate, retry)
		}
	}
	t.admitted++
	return nil
}

// AdmitWitness charges an n-byte witness upload against the size cap and
// the byte bucket. Call before reading the body; n comes from
// Content-Length, so oversized uploads are refused before any transfer.
func (t *Tenant) AdmitWitness(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxWitnessBytes > 0 && n > t.cfg.MaxWitnessBytes {
		return t.quotaErr(KindWitnessSize, 0)
	}
	if t.bytes != nil {
		if float64(n) > t.bytes.burst {
			// Can never fit in one refill; treat as a size refusal so
			// the client doesn't retry forever.
			return t.quotaErr(KindWitnessSize, 0)
		}
		if ok, retry := t.bytes.take(t.clock(), float64(n)); !ok {
			return t.quotaErr(KindBytes, retry)
		}
	}
	return nil
}

// AcquireJob reserves an in-flight slot; pair with ReleaseJob when the
// job reaches a terminal state.
func (t *Tenant) AcquireJob() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.MaxInflight > 0 && t.inflight >= t.cfg.MaxInflight {
		return t.quotaErr(KindInflight, 0)
	}
	t.inflight++
	return nil
}

// ReleaseJob returns an in-flight slot.
func (t *Tenant) ReleaseJob() {
	t.mu.Lock()
	if t.inflight > 0 {
		t.inflight--
	}
	t.mu.Unlock()
}

// Stats is a tenant's metrics snapshot.
type Stats struct {
	ID       string
	Inflight int
	Admitted int64
	Rejected map[Kind]int64
}

// Stats snapshots the tenant's counters.
func (t *Tenant) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	rej := make(map[Kind]int64, len(t.rejected))
	for k, v := range t.rejected {
		rej[k] = v
	}
	return Stats{ID: t.cfg.ID, Inflight: t.inflight, Admitted: t.admitted, Rejected: rej}
}

// Registry authenticates API keys against the configured tenants.
type Registry struct {
	byKey map[string]*Tenant
	byID  map[string]*Tenant
	order []string // config order, for stable metrics output
}

// Option configures a Registry.
type Option func(*registryOpts)

type registryOpts struct{ clock func() time.Time }

// WithClock injects the time source the token buckets use — tests pass
// a fake clock instead of sleeping through refills.
func WithClock(clock func() time.Time) Option {
	return func(o *registryOpts) { o.clock = clock }
}

// NewRegistry builds a registry from tenant configs, rejecting empty or
// duplicate ids and keys.
func NewRegistry(cfgs []Config, opts ...Option) (*Registry, error) {
	ro := registryOpts{clock: time.Now}
	for _, o := range opts {
		o(&ro)
	}
	r := &Registry{
		byKey: make(map[string]*Tenant, len(cfgs)),
		byID:  make(map[string]*Tenant, len(cfgs)),
	}
	for _, cfg := range cfgs {
		if cfg.ID == "" {
			return nil, errors.New("tenant: config with empty id")
		}
		if cfg.Key == "" {
			return nil, fmt.Errorf("tenant %s: empty key", cfg.ID)
		}
		if _, dup := r.byID[cfg.ID]; dup {
			return nil, fmt.Errorf("tenant %s: duplicate id", cfg.ID)
		}
		if _, dup := r.byKey[cfg.Key]; dup {
			return nil, fmt.Errorf("tenant %s: key already assigned", cfg.ID)
		}
		t := &Tenant{cfg: cfg, clock: ro.clock, rejected: make(map[Kind]int64)}
		now := ro.clock()
		if cfg.RequestsPerSec > 0 {
			burst := float64(cfg.Burst)
			if burst <= 0 {
				burst = math.Max(1, math.Ceil(cfg.RequestsPerSec))
			}
			t.reqs = newBucket(cfg.RequestsPerSec, burst, now)
		}
		if cfg.WitnessBytesPerSec > 0 {
			burst := float64(cfg.BytesBurst)
			if burst <= 0 {
				burst = float64(4 * cfg.WitnessBytesPerSec)
			}
			t.bytes = newBucket(float64(cfg.WitnessBytesPerSec), burst, now)
		}
		r.byKey[cfg.Key] = t
		r.byID[cfg.ID] = t
		r.order = append(r.order, cfg.ID)
	}
	return r, nil
}

// Parse decodes a tenants file body.
func Parse(data []byte) ([]Config, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("tenant: parsing tenants file: %w", err)
	}
	if len(f.Tenants) == 0 {
		return nil, errors.New("tenant: tenants file declares no tenants")
	}
	return f.Tenants, nil
}

// LoadFile reads and parses a tenants file.
func LoadFile(path string) ([]Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	return Parse(data)
}

// Authenticate resolves an API key. Empty key → ErrNoKey; unrecognised →
// ErrUnknownKey; disabled → ErrDisabled.
func (r *Registry) Authenticate(key string) (*Tenant, error) {
	if key == "" {
		return nil, ErrNoKey
	}
	t, ok := r.byKey[key]
	if !ok {
		return nil, ErrUnknownKey
	}
	if t.cfg.Disabled {
		return nil, ErrDisabled
	}
	return t, nil
}

// ByID resolves a tenant id (for recovery: re-attributing replayed jobs).
func (r *Registry) ByID(id string) (*Tenant, bool) {
	t, ok := r.byID[id]
	return t, ok
}

// All returns every tenant in config order, for metrics export.
func (r *Registry) All() []*Tenant {
	out := make([]*Tenant, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.byID[id])
	}
	return out
}
