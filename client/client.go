// Package client is the Go client for zkproverd, the zkspeed proving
// service. It speaks the HTTP/JSON API defined in zkspeed/api: circuits
// and witnesses travel as the versioned hyperplonk wire blobs, proofs
// come back as ZKSP bytes decoded into *zkspeed.Proof.
//
//	cl := client.New("http://localhost:8080")
//	digest, _ := cl.RegisterCircuit(ctx, circuit)
//	res, _ := cl.Prove(ctx, digest, assignment)           // sync
//	err := cl.Verify(ctx, digest, res.PublicInputs, res.Proof)
//
// Overload (HTTP 429) surfaces as *client.OverloadedError carrying the
// server's Retry-After, so callers can implement honest backoff.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"zkspeed"
	"zkspeed/api"
)

// Client talks to one zkproverd instance.
type Client struct {
	base      string
	hc        *http.Client
	poll      time.Duration
	apiKey    string
	pcsScheme string

	// auto-retry of overloaded (429) requests; retries == 0 disables it.
	retries     int
	backoffBase time.Duration
	backoffCap  time.Duration
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transport, instrumentation).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.hc = hc
		}
	}
}

// WithAPIKey attaches a tenant API key to every request (sent as
// Authorization: Bearer <key>). Required against a daemon running with a
// tenants file; requests without a valid key answer 401/403.
func WithAPIKey(key string) Option {
	return func(c *Client) { c.apiKey = key }
}

// WithPCSScheme pins the polynomial commitment scheme circuit
// registrations request ("pst", "zeromorph"). A daemon serving a
// different (or unknown) scheme refuses the registration with 422; the
// *APIError's Schemes field then lists the names that build supports.
// Empty (the default) accepts whatever the daemon runs.
func WithPCSScheme(name string) Option {
	return func(c *Client) { c.pcsScheme = name }
}

// WithPollInterval sets how often WaitJob polls an async job. Default
// 250ms.
func WithPollInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.poll = d
		}
	}
}

// WithAutoRetry makes the client transparently retry requests the service
// rejected as overloaded (HTTP 429), up to max additional attempts. Each
// wait honors the server's Retry-After, raised to the exponential backoff
// floor for that attempt and bounded by the configured cap (see
// WithRetryBackoff), plus up to 25% random jitter so a herd of clients
// does not re-arrive in lockstep. Off by default: a caller that wants to
// shed load or reroute on overload sees the *OverloadedError immediately.
func WithAutoRetry(max int) Option {
	return func(c *Client) {
		if max > 0 {
			c.retries = max
		}
	}
}

// WithRetryBackoff tunes the auto-retry schedule: base is the first
// attempt's backoff floor (doubling each retry), cap bounds any single
// wait — including one requested by Retry-After. Defaults: 100ms base,
// 5s cap.
func WithRetryBackoff(base, cap time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoffBase = base
		}
		if cap > 0 {
			c.backoffCap = cap
		}
	}
}

// New returns a client for the service at baseURL (e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:        strings.TrimRight(baseURL, "/"),
		hc:          http.DefaultClient,
		poll:        250 * time.Millisecond,
		backoffBase: 100 * time.Millisecond,
		backoffCap:  5 * time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// OverloadedError is an HTTP 429 from the service: the queue was full.
type OverloadedError struct {
	// RetryAfter is the server's drain estimate.
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("client: service overloaded, retry after %s", e.RetryAfter)
}

// QuotaError is a tenant quota refusal: a 429 carrying one of the
// quota_* codes, or the 413 a witness exceeding the tenant's per-upload
// cap answers with. Distinct from OverloadedError, which reports the
// service as a whole being full — a quota refusal is about this tenant's
// limits and backing off harder won't help other traffic.
type QuotaError struct {
	// Code is the api.ErrCodeQuota* (or ErrCodeWitnessTooBig) class.
	Code    string
	Message string
	// RetryAfter is the server's refill estimate; 0 when retrying the
	// same request can never succeed.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("client: quota exceeded (%s): %s", e.Code, e.Message)
}

// Retryable reports whether waiting can clear the refusal.
func (e *QuotaError) Retryable() bool { return e.Code != api.ErrCodeWitnessTooBig }

// JobError is an async job's terminal failure as reported by the
// service.
type JobError struct {
	JobID   string
	Message string
	// Retryable marks the failure as transient — the job was cut short by
	// a shutdown or cancellation rather than rejected by the prover. On a
	// daemon with a durable store such a job resumes after restart under
	// the same id, so WaitJob keeps polling through it.
	Retryable bool
}

func (e *JobError) Error() string {
	return fmt.Sprintf("client: job %s failed: %s", e.JobID, e.Message)
}

// APIError is any other non-2xx response.
type APIError struct {
	StatusCode int
	Message    string
	// Code machine-classifies the refusal when the server set one (see
	// the api.ErrCode* constants).
	Code string
	// Schemes lists the commitment schemes the server's build registers;
	// set on api.ErrCodePCSScheme refusals.
	Schemes []string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: HTTP %d: %s", e.StatusCode, e.Message)
}

// ProveResult is a completed proving job.
type ProveResult struct {
	JobID        string
	Proof        *zkspeed.Proof
	PublicInputs []zkspeed.Scalar
	// Cached reports the proof came from the service's proof cache.
	Cached bool
	// BatchSize is how many jobs shared the ProveBatch call (0 if cached).
	BatchSize int
	// ProverTime is the server-side proving latency (0 if cached).
	ProverTime time.Duration
	// Steps is the per-protocol-step breakdown, when the server timed it.
	Steps map[string]time.Duration
}

// do round-trips one JSON request, retrying overload rejections when
// auto-retry is configured. A nil out discards the body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doAccept(ctx, method, path, in, out, 0)
}

// doAccept is do with one extra status code treated as a decodable
// success (e.g. the 422 a partially failed batch answers with).
func (c *Client) doAccept(ctx context.Context, method, path string, in, out any, extraOK int) error {
	var blob []byte
	if in != nil {
		var err error
		if blob, err = json.Marshal(in); err != nil {
			return err
		}
	}
	for attempt := 0; ; attempt++ {
		err := c.roundTripBody(ctx, method, path, blob, "application/json", out, extraOK)
		retry, after := retryHint(err)
		if err == nil || !retry || attempt >= c.retries {
			return err
		}
		if werr := c.waitRetry(ctx, attempt, after); werr != nil {
			return werr
		}
	}
}

// retryHint classifies an error as worth auto-retrying — overload, or a
// quota refusal that waiting can clear — and extracts the server's
// Retry-After hint.
func retryHint(err error) (bool, time.Duration) {
	var over *OverloadedError
	if errors.As(err, &over) {
		return true, over.RetryAfter
	}
	var qe *QuotaError
	if errors.As(err, &qe) && qe.Retryable() {
		return true, qe.RetryAfter
	}
	return false, 0
}

// waitRetry sleeps out one backoff step: the exponential floor for this
// attempt, raised to the server's Retry-After, bounded by the cap, plus
// up to 25% jitter. The floor doubles step-by-step and stops at the cap,
// so an arbitrarily large WithAutoRetry count cannot shift the duration
// negative (which would panic the jitter draw).
func (c *Client) waitRetry(ctx context.Context, attempt int, retryAfter time.Duration) error {
	d := c.backoffBase
	for i := 0; i < attempt && d < c.backoffCap; i++ {
		if d > c.backoffCap-d { // doubling would pass the cap
			d = c.backoffCap
			break
		}
		d *= 2
	}
	if retryAfter > d {
		d = retryAfter
	}
	if d > c.backoffCap {
		d = c.backoffCap
	}
	d += time.Duration(rand.Int63n(int64(d)/4 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// quotaCode reports whether an error code names a tenant quota class.
func quotaCode(code string) bool {
	switch code {
	case api.ErrCodeQuotaRate, api.ErrCodeQuotaBytes, api.ErrCodeQuotaInflight, api.ErrCodeWitnessTooBig:
		return true
	}
	return false
}

// roundTripBody performs one HTTP exchange with an explicit body
// content type, mapping refusals onto the typed errors: 429 splits into
// OverloadedError (service-wide) vs QuotaError (tenant quota, by code),
// a coded 413 is a QuotaError too, everything else non-2xx an APIError.
func (c *Client) roundTripBody(ctx context.Context, method, path string, blob []byte, contentType string, out any, extraOK int) error {
	var body io.Reader
	if blob != nil {
		body = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if blob != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if c.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+c.apiKey)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		retry := 1 * time.Second
		if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec > 0 {
			retry = time.Duration(sec) * time.Second
		}
		var apiErr api.Error
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && quotaCode(apiErr.Code) {
			return &QuotaError{Code: apiErr.Code, Message: apiErr.Error, RetryAfter: retry}
		}
		return &OverloadedError{RetryAfter: retry}
	}
	ok := resp.StatusCode >= 200 && resp.StatusCode < 300
	if extraOK != 0 && resp.StatusCode == extraOK {
		ok = true
	}
	if !ok {
		var apiErr api.Error
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			msg = apiErr.Error
		}
		if quotaCode(apiErr.Code) {
			return &QuotaError{Code: apiErr.Code, Message: msg}
		}
		return &APIError{StatusCode: resp.StatusCode, Message: msg, Code: apiErr.Code, Schemes: apiErr.Schemes}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RegisterCircuit uploads the circuit and returns its digest — the
// handle for every subsequent Prove/Verify call. Registration is
// idempotent.
func (c *Client) RegisterCircuit(ctx context.Context, circuit *zkspeed.Circuit) (string, error) {
	blob, err := circuit.MarshalBinary()
	if err != nil {
		return "", err
	}
	var info api.CircuitInfo
	req := api.RegisterCircuitRequest{Circuit: blob, PCSScheme: c.pcsScheme}
	if err := c.do(ctx, http.MethodPost, "/v1/circuits", req, &info); err != nil {
		return "", err
	}
	return info.Digest, nil
}

// Circuit fetches metadata for a registered circuit.
func (c *Client) Circuit(ctx context.Context, digest string) (*api.CircuitInfo, error) {
	var info api.CircuitInfo
	if err := c.do(ctx, http.MethodGet, "/v1/circuits/"+digest, nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

func proveRequest(digest string, assignment *zkspeed.Assignment, priority string, wait bool) (*api.ProveRequest, error) {
	witness, err := assignment.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &api.ProveRequest{
		CircuitDigest: digest,
		Witness:       witness,
		Priority:      priority,
		Wait:          wait,
	}, nil
}

// Prove synchronously proves the assignment against a registered circuit
// and returns the decoded proof. priority is one of the api.Priority*
// names; empty means normal.
func (c *Client) Prove(ctx context.Context, digest string, assignment *zkspeed.Assignment, priority ...string) (*ProveResult, error) {
	req, err := proveRequest(digest, assignment, firstOrEmpty(priority), true)
	if err != nil {
		return nil, err
	}
	var resp api.ProveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/prove", req, &resp); err != nil {
		return nil, err
	}
	return decodeProveResponse(&resp)
}

// ProveStream synchronously proves the assignment by shipping the
// witness as the raw ZKSW request body (POST /v1/prove_stream) instead
// of JSON+base64 framing — on a durable-store daemon the bytes stream
// straight into the write-ahead log as they arrive. The circuit must
// already be registered.
func (c *Client) ProveStream(ctx context.Context, digest string, assignment *zkspeed.Assignment, priority ...string) (*ProveResult, error) {
	witness, err := assignment.MarshalBinary()
	if err != nil {
		return nil, err
	}
	q := url.Values{"circuit_digest": {digest}, "wait": {"true"}}
	if p := firstOrEmpty(priority); p != "" {
		q.Set("priority", p)
	}
	path := "/v1/prove_stream?" + q.Encode()
	var resp api.ProveResponse
	for attempt := 0; ; attempt++ {
		err := c.roundTripBody(ctx, http.MethodPost, path, witness, "application/octet-stream", &resp, 0)
		retry, after := retryHint(err)
		if err == nil || !retry || attempt >= c.retries {
			if err != nil {
				return nil, err
			}
			return decodeProveResponse(&resp)
		}
		if werr := c.waitRetry(ctx, attempt, after); werr != nil {
			return nil, werr
		}
	}
}

// SubmitProve enqueues an async proving job and returns its id for
// WaitJob / Job polling.
func (c *Client) SubmitProve(ctx context.Context, digest string, assignment *zkspeed.Assignment, priority ...string) (string, error) {
	req, err := proveRequest(digest, assignment, firstOrEmpty(priority), false)
	if err != nil {
		return "", err
	}
	var resp api.ProveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/prove", req, &resp); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// Job fetches the current state of an async job; the result is non-nil
// only when the job reached a terminal state (done → result, failed →
// error).
func (c *Client) Job(ctx context.Context, id string) (status string, result *ProveResult, err error) {
	var resp api.ProveResponse
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &resp); err != nil {
		return "", nil, err
	}
	switch resp.Status {
	case api.StatusDone:
		res, err := decodeProveResponse(&resp)
		return resp.Status, res, err
	case api.StatusFailed:
		return resp.Status, nil, &JobError{JobID: id, Message: resp.Error, Retryable: resp.Retryable}
	}
	return resp.Status, nil, nil
}

// WaitJob polls until the job reaches a terminal state (or ctx expires)
// and returns the decoded result. It is built to ride out a daemon
// restart: transport errors, overload rejections, and retryable job
// failures (a job cut short by shutdown — which a durable-store daemon
// resumes under the same id) are waited out with capped exponential
// backoff honoring any Retry-After, rather than surfaced. Only a
// definitive answer ends the wait: a proof, a terminal prover rejection
// (*JobError with Retryable false), an unknown job id (404), or the
// context expiring.
func (c *Client) WaitJob(ctx context.Context, id string) (*ProveResult, error) {
	attempt := 0
	for {
		status, res, err := c.Job(ctx, id)
		if err == nil && status == api.StatusDone {
			return res, nil
		}
		if err == nil {
			// Queued or running: healthy, steady-interval polling.
			attempt = 0
			if werr := sleepCtx(ctx, c.poll); werr != nil {
				return nil, werr
			}
			continue
		}
		var jerr *JobError
		if errors.As(err, &jerr) && !jerr.Retryable {
			return nil, err
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
			// The daemon replays its store before serving, so an unknown id
			// is genuinely gone (volatile store, or evicted by retention).
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Transport error mid-restart, 429, 5xx, or a retryable failure
		// awaiting resume: back off and keep polling.
		_, after := retryHint(err)
		if werr := c.waitRetry(ctx, attempt, after); werr != nil {
			return nil, werr
		}
		attempt++
	}
}

// sleepCtx waits out d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Verify asks the service to check a proof. A nil error means valid; an
// invalid proof returns an error wrapping ErrInvalidProof.
func (c *Client) Verify(ctx context.Context, digest string, pub []zkspeed.Scalar, proof *zkspeed.Proof) error {
	blob, err := proof.MarshalBinary()
	if err != nil {
		return err
	}
	req := api.VerifyRequest{
		CircuitDigest: digest,
		PublicInputs:  encodeScalars(pub),
		Proof:         blob,
	}
	var resp api.VerifyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/verify", req, &resp); err != nil {
		return err
	}
	if !resp.Valid {
		return fmt.Errorf("%w: %s", ErrInvalidProof, resp.Error)
	}
	return nil
}

// ErrInvalidProof marks a definitive verification rejection (as opposed
// to a transport or API failure).
var ErrInvalidProof = errors.New("client: proof invalid")

// BatchStatement is one statement's outcome inside a BatchResult.
type BatchStatement struct {
	// Result is the decoded proof; nil when Err is set.
	Result *ProveResult
	// Err is the statement's failure, nil on success.
	Err error
}

// BatchResult is the aggregated outcome of ProveBatch.
type BatchResult struct {
	CircuitDigest string
	// BatchDigest binds every proof in order; empty if any statement
	// failed.
	BatchDigest string
	// Failed counts failed statements.
	Failed int
	// Statements holds per-statement outcomes in request order.
	Statements []BatchStatement
}

// ProveBatch proves many witnesses of one registered circuit as a unit
// and returns the per-statement proofs plus the order-binding batch
// digest. Partial failure is not a transport error: the returned
// BatchResult reports it per statement (and in Failed), so err is non-nil
// only when the batch could not be attempted at all.
func (c *Client) ProveBatch(ctx context.Context, digest string, assignments []*zkspeed.Assignment, priority ...string) (*BatchResult, error) {
	wits := make([][]byte, len(assignments))
	for i, a := range assignments {
		blob, err := a.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("client: serializing witness %d: %w", i, err)
		}
		wits[i] = blob
	}
	req := api.ProveBatchRequest{
		CircuitDigest: digest,
		Witnesses:     wits,
		Priority:      firstOrEmpty(priority),
	}
	var resp api.ProveBatchResponse
	// A batch with failed statements answers 422 with the same body shape.
	if err := c.doAccept(ctx, http.MethodPost, "/v1/prove_batch", req, &resp, http.StatusUnprocessableEntity); err != nil {
		return nil, err
	}
	out := &BatchResult{
		CircuitDigest: resp.CircuitDigest,
		BatchDigest:   resp.BatchDigest,
		Failed:        resp.Failed,
		Statements:    make([]BatchStatement, len(resp.Results)),
	}
	for i := range resp.Results {
		res, err := decodeProveResponse(&resp.Results[i])
		out.Statements[i] = BatchStatement{Result: res, Err: err}
	}
	return out, nil
}

// Ready fetches the service's readiness state. A false Ready (the
// service answers 503) is reported in the returned struct, not as an
// error.
func (c *Client) Ready(ctx context.Context) (*api.Ready, error) {
	var r api.Ready
	if err := c.doAccept(ctx, http.MethodGet, "/readyz", nil, &r, http.StatusServiceUnavailable); err != nil {
		return nil, err
	}
	return &r, nil
}

// Health fetches the service's liveness summary.
func (c *Client) Health(ctx context.Context) (*api.Health, error) {
	var h api.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{StatusCode: resp.StatusCode, Message: resp.Status}
	}
	blob, err := io.ReadAll(resp.Body)
	return string(blob), err
}

func firstOrEmpty(s []string) string {
	if len(s) > 0 {
		return s[0]
	}
	return ""
}

func decodeProveResponse(resp *api.ProveResponse) (*ProveResult, error) {
	if resp.Status == api.StatusFailed {
		return nil, fmt.Errorf("client: proving failed: %s", resp.Error)
	}
	if resp.Status != api.StatusDone {
		return nil, fmt.Errorf("client: unexpected job status %q", resp.Status)
	}
	var proof zkspeed.Proof
	if err := proof.UnmarshalBinary(resp.Proof); err != nil {
		return nil, fmt.Errorf("client: decoding proof: %w", err)
	}
	pub, err := decodeScalars(resp.PublicInputs)
	if err != nil {
		return nil, err
	}
	res := &ProveResult{
		JobID:        resp.JobID,
		Proof:        &proof,
		PublicInputs: pub,
		Cached:       resp.Cached,
		BatchSize:    resp.BatchSize,
		ProverTime:   time.Duration(resp.ProverNS),
	}
	if len(resp.StepsNS) > 0 {
		res.Steps = make(map[string]time.Duration, len(resp.StepsNS))
		for k, v := range resp.StepsNS {
			res.Steps[k] = time.Duration(v)
		}
	}
	return res, nil
}

func encodeScalars(vs []zkspeed.Scalar) [][]byte {
	out := make([][]byte, len(vs))
	for i := range vs {
		b := vs[i].Bytes()
		out[i] = b[:]
	}
	return out
}

func decodeScalars(in [][]byte) ([]zkspeed.Scalar, error) {
	out := make([]zkspeed.Scalar, len(in))
	for i, b := range in {
		if len(b) != 32 {
			return nil, fmt.Errorf("client: public input %d is %d bytes, want 32", i, len(b))
		}
		if !out[i].SetCanonicalBytes(b) {
			return nil, fmt.Errorf("client: public input %d is non-canonical", i)
		}
	}
	return out, nil
}
