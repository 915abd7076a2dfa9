// Package api defines the JSON wire types of the zkproverd HTTP API,
// shared by the server (internal/service) and the zkspeed/client package.
// Binary payloads (circuits, witnesses, proofs) are the versioned
// hyperplonk wire formats, carried base64-encoded inside JSON ([]byte
// fields); field elements travel as 32-byte canonical big-endian blobs.
//
// The package deliberately imports nothing from the rest of the module,
// so external clients in other languages can treat this file as the API
// reference.
package api

// Job priorities, highest first. The service's queue drains high before
// normal before low; jobs of equal priority keep arrival order.
const (
	PriorityHigh   = "high"
	PriorityNormal = "normal"
	PriorityLow    = "low"
)

// Job statuses reported by POST /v1/prove and GET /v1/jobs/{id}.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// RegisterCircuitRequest is the body of POST /v1/circuits.
type RegisterCircuitRequest struct {
	// Circuit is a ZKSC circuit blob (Circuit.MarshalBinary).
	Circuit []byte `json:"circuit"`
	// PCSScheme optionally names the polynomial commitment scheme the
	// circuit must be served under ("pst", "zeromorph"). Empty accepts
	// the daemon's configured scheme. A name the daemon does not serve is
	// refused with 422 and ErrCodePCSScheme; the error body lists the
	// scheme the daemon runs plus every name this build knows.
	PCSScheme string `json:"pcs_scheme,omitempty"`
}

// CircuitInfo describes a registered circuit; returned by
// POST /v1/circuits and GET /v1/circuits/{digest}.
type CircuitInfo struct {
	// Digest is the hex-encoded 32-byte circuit digest — the handle every
	// subsequent prove/verify request uses.
	Digest    string `json:"digest"`
	Mu        int    `json:"mu"`
	NumGates  int    `json:"num_gates"`
	NumPublic int    `json:"num_public"`
	// PCSScheme is the polynomial commitment scheme the circuit's proofs
	// are produced under.
	PCSScheme string `json:"pcs_scheme"`
	// Proofs counts proofs served for this circuit (cache hits included).
	Proofs int64 `json:"proofs"`
}

// ProveRequest is the body of POST /v1/prove. Exactly one of
// CircuitDigest (for a registered circuit) or Circuit (register-on-use)
// must be set.
type ProveRequest struct {
	CircuitDigest string `json:"circuit_digest,omitempty"`
	// Circuit optionally carries a ZKSC blob, registering the circuit as
	// part of the request.
	Circuit []byte `json:"circuit,omitempty"`
	// Witness is a ZKSW assignment blob for the circuit.
	Witness []byte `json:"witness"`
	// Priority is PriorityHigh/Normal/Low; empty means normal.
	Priority string `json:"priority,omitempty"`
	// Wait selects the synchronous mode: the response carries the proof
	// (or failure) instead of a queued job id to poll.
	Wait bool `json:"wait,omitempty"`
}

// ProveResponse is the result of POST /v1/prove and GET /v1/jobs/{id}.
type ProveResponse struct {
	JobID         string `json:"job_id"`
	Status        string `json:"status"`
	CircuitDigest string `json:"circuit_digest,omitempty"`
	// Proof is a ZKSP proof blob (Proof.MarshalBinary); set when Status
	// is "done".
	Proof []byte `json:"proof,omitempty"`
	// PublicInputs are the 32-byte big-endian public input values
	// extracted from the witness, in circuit order.
	PublicInputs [][]byte `json:"public_inputs,omitempty"`
	// Cached reports that the proof came from the service's proof cache
	// without re-proving.
	Cached bool `json:"cached,omitempty"`
	// BatchSize is the number of jobs coalesced into the ProveBatch call
	// that produced this proof (1 = proved alone; 0 for cached results).
	BatchSize int `json:"batch_size,omitempty"`
	// PCSScheme names the commitment scheme the proof was produced under;
	// set alongside Proof when Status is "done".
	PCSScheme string `json:"pcs_scheme,omitempty"`
	// ProverNS is the measured proving time in nanoseconds (0 when cached).
	ProverNS int64 `json:"prover_ns,omitempty"`
	// StepsNS decomposes the proof into per-protocol-step shares.
	StepsNS map[string]int64 `json:"steps_ns,omitempty"`
	// Error describes the failure when Status is "failed".
	Error string `json:"error,omitempty"`
	// Retryable marks a failed job as cut short transiently (shutdown,
	// cancellation) rather than rejected by the prover. On a daemon with
	// a durable store such a job resumes after restart under the same
	// JobID — clients should keep polling, not give up.
	Retryable bool `json:"retryable,omitempty"`
}

// ProveBatchRequest is the body of POST /v1/prove_batch — a rollup-style
// batch of statements over one circuit, proved as a unit. Exactly one of
// CircuitDigest or Circuit must be set, as in ProveRequest. The call is
// synchronous: the response carries every proof (or per-statement
// failure). The statements spread across the service's batch loops.
type ProveBatchRequest struct {
	CircuitDigest string `json:"circuit_digest,omitempty"`
	// Circuit optionally carries a ZKSC blob, registering the circuit as
	// part of the request.
	Circuit []byte `json:"circuit,omitempty"`
	// Witnesses are ZKSW assignment blobs, one per statement.
	Witnesses [][]byte `json:"witnesses"`
	// Priority is PriorityHigh/Normal/Low; empty means normal.
	Priority string `json:"priority,omitempty"`
}

// ProveBatchResponse is the aggregated result of POST /v1/prove_batch.
type ProveBatchResponse struct {
	CircuitDigest string `json:"circuit_digest"`
	// Results holds one terminal ProveResponse per statement, in request
	// order.
	Results []ProveResponse `json:"results"`
	// BatchDigest is a hex-encoded 32-byte hash binding every proof blob
	// in order — the aggregation handle a rollup tenant stores instead of
	// N proofs. Empty if any statement failed.
	BatchDigest string `json:"batch_digest,omitempty"`
	// Failed counts statements whose Status is "failed".
	Failed int `json:"failed,omitempty"`
}

// VerifyRequest is the body of POST /v1/verify.
type VerifyRequest struct {
	CircuitDigest string   `json:"circuit_digest"`
	PublicInputs  [][]byte `json:"public_inputs"`
	// Proof is a ZKSP proof blob.
	Proof []byte `json:"proof"`
}

// VerifyResponse is the result of POST /v1/verify. A well-formed request
// with an invalid proof is a 200 with Valid=false, not an HTTP error.
type VerifyResponse struct {
	Valid bool `json:"valid"`
	// Error explains the rejection when Valid is false.
	Error string `json:"error,omitempty"`
}

// Health is the body of GET /healthz. Shards is the number of batch
// loops draining the service's one job queue.
type Health struct {
	Status        string `json:"status"`
	Shards        int    `json:"shards"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Circuits      int    `json:"circuits"`
	JobsDone      int64  `json:"jobs_done"`
	JobsFailed    int64  `json:"jobs_failed"`
	CacheHits     int64  `json:"cache_hits"`
}

// Ready is the body of GET /readyz. The endpoint answers 200 when ready
// and 503 otherwise — the knob load balancers watch. Readiness is distinct
// from liveness (/healthz, always 200 while the process serves): a daemon
// is alive but unready while preloading and after beginning a graceful
// drain.
type Ready struct {
	Ready bool `json:"ready"`
	// Reason explains a false Ready.
	Reason string `json:"reason,omitempty"`
}

// Error codes distinguishing the refusal classes that share an HTTP
// status. The full auth/quota matrix:
//
//	401 ErrCodeUnauthorized   missing or unknown API key
//	403 ErrCodeKeyDisabled    valid key, administratively disabled
//	413 ErrCodeWitnessTooBig  witness exceeds the tenant's per-upload cap
//	429 ErrCodeOverloaded     job queue full (not tenant-specific)
//	429 ErrCodeQuotaRate      tenant requests/sec bucket empty
//	429 ErrCodeQuotaBytes     tenant witness-bytes budget exhausted
//	429 ErrCodeQuotaInflight  tenant at max in-flight jobs
//	422 ErrCodePCSScheme      unknown or unserved pcs_scheme in request
const (
	ErrCodeUnauthorized  = "unauthorized"
	ErrCodeKeyDisabled   = "key_disabled"
	ErrCodeWitnessTooBig = "witness_too_big"
	ErrCodeOverloaded    = "overloaded"
	ErrCodeQuotaRate     = "quota_rate"
	ErrCodeQuotaBytes    = "quota_bytes"
	ErrCodeQuotaInflight = "quota_inflight"
	ErrCodePCSScheme     = "pcs_scheme"
)

// Error is the JSON body of every non-2xx response. Overload and quota
// responses (429) additionally set the Retry-After header to
// RetryAfterSec. Code, when set, machine-classifies the refusal (see the
// ErrCode constants); clients should branch on it rather than parsing
// Error text.
type Error struct {
	Error         string `json:"error"`
	Code          string `json:"code,omitempty"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
	// Schemes accompanies ErrCodePCSScheme: the commitment scheme names
	// this build registers, so clients can pick a supported one without
	// a second round trip.
	Schemes []string `json:"schemes,omitempty"`
}
