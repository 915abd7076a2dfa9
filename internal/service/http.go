package service

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"

	"zkspeed/api"
	"zkspeed/internal/ff"
	"zkspeed/internal/hyperplonk"
	"zkspeed/internal/pcs"
	"zkspeed/internal/store"
	"zkspeed/internal/tenant"
)

// Handler returns the service's HTTP/JSON API:
//
//	POST /v1/circuits           register a circuit (ZKSC blob)
//	GET  /v1/circuits/{digest}  registered-circuit metadata
//	POST /v1/prove              prove (sync with wait=true, else async)
//	POST /v1/prove_stream       prove with the witness as the raw body
//	POST /v1/prove_batch        prove a rollup batch (always sync)
//	GET  /v1/jobs/{id}          poll an async job
//	POST /v1/verify             verify a proof
//	GET  /healthz               liveness + queue summary
//	GET  /readyz                readiness (503 until ready)
//	GET  /metrics               Prometheus text exposition
//
// With a tenant registry configured, every /v1 endpoint requires an API
// key (Authorization: Bearer <key> or X-API-Key) and charges the
// tenant's quotas; probes and /metrics stay open.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/circuits", s.handleRegister)
	mux.HandleFunc("GET /v1/circuits/{digest}", s.handleCircuit)
	mux.HandleFunc("POST /v1/prove", s.handleProve)
	mux.HandleFunc("POST /v1/prove_stream", s.handleProveStream)
	mux.HandleFunc("POST /v1/prove_batch", s.handleProveBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.instrument(s.authenticate(mux))
}

// tenantCtxKey carries the authenticated tenant through the request
// context.
type tenantCtxKey struct{}

// tenantOf returns the request's authenticated tenant (nil when the
// service runs unauthenticated).
func tenantOf(r *http.Request) *tenant.Tenant {
	tn, _ := r.Context().Value(tenantCtxKey{}).(*tenant.Tenant)
	return tn
}

// apiKey extracts the presented API key: Authorization: Bearer wins,
// X-API-Key is the fallback for clients that cannot set Authorization.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if k, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
	}
	return r.Header.Get("X-API-Key")
}

// authenticate enforces API-key auth on the /v1 endpoints when a tenant
// registry is configured (pass-through otherwise), resolves the tenant
// into the request context, and charges its request-rate quota.
func (s *Service) authenticate(next http.Handler) http.Handler {
	reg := s.cfg.Tenants
	if reg == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		tn, err := reg.Authenticate(apiKey(r))
		if err != nil {
			code, errCode := http.StatusUnauthorized, api.ErrCodeUnauthorized
			if errors.Is(err, tenant.ErrDisabled) {
				code, errCode = http.StatusForbidden, api.ErrCodeKeyDisabled
			}
			writeJSON(w, code, api.Error{Error: err.Error(), Code: errCode})
			return
		}
		if err := tn.AdmitRequest(); err != nil {
			var qe *tenant.QuotaError
			if errors.As(err, &qe) {
				writeQuota(w, qe)
			} else {
				writeError(w, http.StatusInternalServerError, "%v", err)
			}
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tn)))
	})
}

// instrument counts every served request by route pattern and status.
func (s *Service) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &codeWriter{ResponseWriter: w, req: r, met: s.met}
		next.ServeHTTP(cw, r)
		cw.count(http.StatusOK) // a handler that wrote nothing answers 200
	})
}

// codeWriter counts its request as the response starts, before any byte
// reaches the client: whoever has read a response must find it counted
// in the next /metrics scrape.
type codeWriter struct {
	http.ResponseWriter
	req     *http.Request
	met     *Metrics
	counted bool
}

func (w *codeWriter) count(code int) {
	if w.counted {
		return
	}
	w.counted = true
	pattern := w.req.Pattern
	if pattern == "" {
		pattern = "unmatched"
	}
	w.met.observeHTTP(pattern, code)
}

func (w *codeWriter) WriteHeader(code int) {
	w.count(code)
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeWriter) Write(p []byte) (int, error) {
	w.count(http.StatusOK)
	return w.ResponseWriter.Write(p)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, api.Error{Error: fmt.Sprintf(format, args...)})
}

// writeOverloaded maps an OverloadedError to 429 + Retry-After.
func writeOverloaded(w http.ResponseWriter, over *OverloadedError) {
	sec := int(math.Ceil(over.RetryAfter.Seconds()))
	w.Header().Set("Retry-After", fmt.Sprint(sec))
	writeJSON(w, http.StatusTooManyRequests, api.Error{
		Error:         "queue full — retry later",
		Code:          api.ErrCodeOverloaded,
		RetryAfterSec: sec,
	})
}

// writeQuota maps a tenant.QuotaError onto the error matrix: a
// witness-size refusal is 413 (retrying the same upload never helps),
// every other kind is 429 with a Retry-After hint.
func writeQuota(w http.ResponseWriter, qe *tenant.QuotaError) {
	if qe.Kind == tenant.KindWitnessSize {
		writeJSON(w, http.StatusRequestEntityTooLarge, api.Error{
			Error: qe.Error(), Code: api.ErrCodeWitnessTooBig,
		})
		return
	}
	code := api.ErrCodeQuotaRate
	switch qe.Kind {
	case tenant.KindBytes:
		code = api.ErrCodeQuotaBytes
	case tenant.KindInflight:
		code = api.ErrCodeQuotaInflight
	}
	sec := int(math.Ceil(qe.RetryAfter.Seconds()))
	if sec < 1 {
		sec = 1 // inflight refusals carry no estimate; poll politely
	}
	w.Header().Set("Retry-After", fmt.Sprint(sec))
	writeJSON(w, http.StatusTooManyRequests, api.Error{
		Error: qe.Error(), Code: code, RetryAfterSec: sec,
	})
}

// decodeBody JSON-decodes a size-capped request body. An oversized body
// is 413 (shrink and retry), not 400 (malformed, don't retry).
func (s *Service) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// checkPCSScheme enforces a request's pcs_scheme against the scheme this
// service proves under. Both unknown names and known-but-unserved
// ones are 422 — the statement cannot be served as phrased — and the body
// lists every scheme this build registers so the client can repair the
// request without a discovery round trip.
func (s *Service) checkPCSScheme(w http.ResponseWriter, requested string) bool {
	if requested == "" || requested == s.scheme {
		return true
	}
	msg := fmt.Sprintf("this daemon proves under pcs_scheme %q, not %q", s.scheme, requested)
	if _, err := pcs.ParseScheme(requested); err != nil {
		msg = fmt.Sprintf("unknown pcs_scheme %q", requested)
	}
	writeJSON(w, http.StatusUnprocessableEntity, api.Error{
		Error:   msg,
		Code:    api.ErrCodePCSScheme,
		Schemes: pcs.Schemes(),
	})
	return false
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req api.RegisterCircuitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !s.checkPCSScheme(w, req.PCSScheme) {
		return
	}
	var c hyperplonk.Circuit
	if err := c.UnmarshalBinary(req.Circuit); err != nil {
		writeError(w, http.StatusBadRequest, "invalid circuit: %v", err)
		return
	}
	entry, err := s.RegisterCircuit(&c)
	if err != nil {
		writeError(w, http.StatusInsufficientStorage, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, entry.info())
}

// parseDigest decodes a 64-char hex circuit digest.
func parseDigest(s string) ([32]byte, error) {
	var d [32]byte
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		return d, errors.New("digest must be 64 hex characters")
	}
	copy(d[:], b)
	return d, nil
}

func (s *Service) handleCircuit(w http.ResponseWriter, r *http.Request) {
	digest, err := parseDigest(r.PathValue("digest"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entry, ok := s.Circuit(digest)
	if !ok {
		writeError(w, http.StatusNotFound, "circuit not registered")
		return
	}
	writeJSON(w, http.StatusOK, entry.info())
}

func (s *Service) handleProve(w http.ResponseWriter, r *http.Request) {
	var req api.ProveRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	// Witness and priority are validated before any register-on-use side
	// effect, so a malformed request cannot grow the circuit registry.
	var assign hyperplonk.Assignment
	if err := assign.UnmarshalBinary(req.Witness); err != nil {
		writeError(w, http.StatusBadRequest, "invalid witness: %v", err)
		return
	}
	priority, err := parsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tn := tenantOf(r)
	if tn != nil {
		if err := tn.AdmitWitness(int64(len(req.Witness))); !s.writeSubmitErr(w, err) {
			return
		}
	}
	entry := s.resolveCircuit(w, req.CircuitDigest, req.Circuit)
	if entry == nil {
		return
	}

	j, err := s.Submit(tn, entry, &assign, priority, req.Witness)
	if !s.writeSubmitErr(w, err) {
		return
	}
	s.writeJobOutcome(w, r, j, req.Wait)
}

// writeJobOutcome renders a submitted job: synchronously (wait until the
// terminal response, mapping retryable failures to 503 and prover
// rejections to 422) or asynchronously (202 with the id to poll, 200 on
// a cache hit that finished before queuing).
func (s *Service) writeJobOutcome(w http.ResponseWriter, r *http.Request, j *job, wait bool) {
	if wait {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client gone; the job keeps running and stays pollable.
			return
		}
		resp := j.response()
		code := http.StatusOK
		if resp.Status == api.StatusFailed {
			if j.failedRetryable() {
				// Shutdown or cancellation cut the job short — the same
				// request succeeds against a healthy instance.
				code = http.StatusServiceUnavailable
			} else {
				// The prover rejected the witness: unprocessable, not a
				// server error.
				code = http.StatusUnprocessableEntity
			}
		}
		writeJSON(w, code, resp)
		return
	}
	resp := j.response()
	code := http.StatusAccepted
	if resp.Status == api.StatusDone {
		code = http.StatusOK // proof-cache hit: done before queued
	}
	writeJSON(w, code, resp)
}

// handleProveStream is POST /v1/prove_stream: the witness travels as the
// raw ZKSW request body (no JSON or base64 framing) and is decoded
// incrementally — on a durable store the bytes tee into the WAL as they
// arrive, so a large witness is never buffered whole before its first
// byte is durable. The circuit must already be registered; parameters
// travel as query values (circuit_digest, priority, wait). A
// Content-Length is required so admission can refuse an oversized upload
// before any transfer.
func (s *Service) handleProveStream(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	digestHex := q.Get("circuit_digest")
	if digestHex == "" {
		writeError(w, http.StatusBadRequest, "missing circuit_digest query parameter")
		return
	}
	digest, err := parseDigest(digestHex)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entry, ok := s.Circuit(digest)
	if !ok {
		writeError(w, http.StatusNotFound, "circuit %s not registered", digestHex)
		return
	}
	priority, err := parsePriority(q.Get("priority"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if r.ContentLength < 0 {
		writeError(w, http.StatusLengthRequired, "prove_stream requires Content-Length")
		return
	}
	if r.ContentLength > s.cfg.MaxBodyBytes {
		writeJSON(w, http.StatusRequestEntityTooLarge, api.Error{
			Error: fmt.Sprintf("witness exceeds %d bytes", s.cfg.MaxBodyBytes),
			Code:  api.ErrCodeWitnessTooBig,
		})
		return
	}
	tn := tenantOf(r)
	if tn != nil {
		if err := tn.AdmitWitness(r.ContentLength); !s.writeSubmitErr(w, err) {
			return
		}
	}
	j, err := s.SubmitStream(tn, entry, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), priority)
	if err != nil {
		if errors.Is(err, errBadWitness) {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if !s.writeSubmitErr(w, err) {
			return
		}
	}
	wait := q.Get("wait") == "true" || q.Get("wait") == "1"
	s.writeJobOutcome(w, r, j, wait)
}

// resolveCircuit implements the digest-or-blob circuit selection shared
// by prove and prove_batch: exactly one of digestHex (registered lookup)
// or blob (register-on-use) must be set. On failure the error response is
// written and nil returned.
func (s *Service) resolveCircuit(w http.ResponseWriter, digestHex string, blob []byte) *circuitEntry {
	switch {
	case digestHex != "" && len(blob) > 0:
		writeError(w, http.StatusBadRequest, "set either circuit_digest or circuit, not both")
	case digestHex != "":
		digest, err := parseDigest(digestHex)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return nil
		}
		entry, ok := s.Circuit(digest)
		if !ok {
			writeError(w, http.StatusNotFound, "circuit %s not registered", digestHex)
			return nil
		}
		return entry
	case len(blob) > 0:
		var c hyperplonk.Circuit
		if err := c.UnmarshalBinary(blob); err != nil {
			writeError(w, http.StatusBadRequest, "invalid circuit: %v", err)
			return nil
		}
		entry, err := s.RegisterCircuit(&c)
		if err != nil {
			writeError(w, http.StatusInsufficientStorage, "%v", err)
			return nil
		}
		return entry
	default:
		writeError(w, http.StatusBadRequest, "missing circuit_digest or circuit")
	}
	return nil
}

// handleProveBatch proves a rollup batch synchronously: the statements
// spread across the batch loops and the response aggregates every proof
// plus the batch digest.
func (s *Service) handleProveBatch(w http.ResponseWriter, r *http.Request) {
	var req api.ProveBatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Witnesses) == 0 {
		writeError(w, http.StatusBadRequest, "empty witness list")
		return
	}
	priority, err := parsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tn := tenantOf(r)
	assigns := make([]*hyperplonk.Assignment, len(req.Witnesses))
	for i, blob := range req.Witnesses {
		if tn != nil {
			// Each statement is one upload against the byte budget, so the
			// per-upload size cap applies per witness, not to the batch sum.
			if err := tn.AdmitWitness(int64(len(blob))); !s.writeSubmitErr(w, err) {
				return
			}
		}
		var a hyperplonk.Assignment
		if err := a.UnmarshalBinary(blob); err != nil {
			writeError(w, http.StatusBadRequest, "invalid witness %d: %v", i, err)
			return
		}
		assigns[i] = &a
	}
	entry := s.resolveCircuit(w, req.CircuitDigest, req.Circuit)
	if entry == nil {
		return
	}
	resp, err := s.ProveBatchWait(r.Context(), tn, entry, assigns, priority, req.Witnesses)
	if !s.writeSubmitErr(w, err) {
		return
	}
	// Per-statement failures are reported in-band; the HTTP code reflects
	// the batch as a whole so a rollup client can retry it as a unit.
	code := http.StatusOK
	if resp.Failed > 0 {
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, resp)
}

// handleReady answers readiness probes: 200 only when the service is
// ready to prove (post-preload and pre-drain).
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	st := s.ReadyState()
	code := http.StatusOK
	if !st.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, st)
}

// writeSubmitErr handles the submit error, reporting whether the caller
// may proceed.
func (s *Service) writeSubmitErr(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return true
	case errors.Is(err, errWitnessSize):
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		var over *OverloadedError
		if errors.As(err, &over) {
			writeOverloaded(w, over)
			return false
		}
		var qe *tenant.QuotaError
		if errors.As(err, &qe) {
			writeQuota(w, qe)
			return false
		}
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	}
	return false
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job (finished jobs are retained for %d submissions)", s.cfg.JobRetention)
		return
	}
	writeJSON(w, http.StatusOK, j.response())
}

func (s *Service) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req api.VerifyRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	digest, err := parseDigest(req.CircuitDigest)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	entry, ok := s.Circuit(digest)
	if !ok {
		writeError(w, http.StatusNotFound, "circuit %s not registered", req.CircuitDigest)
		return
	}
	pub, err := decodeFrs(req.PublicInputs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var proof hyperplonk.Proof
	if err := proof.UnmarshalBinary(req.Proof); err != nil {
		// Malformed wire bytes are a verification failure, not a bad
		// request: the caller's question ("is this a valid proof?") has a
		// definitive answer.
		writeJSON(w, http.StatusOK, api.VerifyResponse{Valid: false, Error: err.Error()})
		s.met.mu.Lock()
		s.met.verifies++
		s.met.verifyFailed++
		s.met.mu.Unlock()
		return
	}
	if err := s.Verify(r.Context(), entry, pub, &proof); err != nil {
		writeJSON(w, http.StatusOK, api.VerifyResponse{Valid: false, Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, api.VerifyResponse{Valid: true})
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.met.Snapshot()
	writeJSON(w, http.StatusOK, api.Health{
		Status:        "ok",
		Shards:        s.loops,
		QueueDepth:    s.QueueDepth(),
		QueueCapacity: s.cfg.QueueCapacity,
		Circuits:      s.circuitCount(),
		JobsDone:      snap.JobsDone,
		JobsFailed:    snap.JobsFailed,
		CacheHits:     snap.CacheHits,
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// One Stats snapshot feeds all three cumulative engine series; they are
	// monotonic, so they render as counters.
	st := s.backend.Stats()
	gauges := []gauge{
		{name: "zkproverd_circuits_registered", help: "Registered circuits.", value: float64(s.circuitCount())},
		{name: "zkproverd_proof_cache_entries", help: "Proofs in the LRU cache.", value: float64(s.cache.Len())},
		{name: "zkproverd_queue_depth", help: "Queued jobs.", value: float64(s.queue.Depth())},
		{name: "zkproverd_srs_setups_total", help: "SRS ceremonies run by the engine.", counter: true, value: float64(st.SRSSetups)},
		{name: "zkproverd_key_setups_total", help: "Circuit preprocessings run by the engine.", counter: true, value: float64(st.KeySetups)},
		{name: "zkproverd_key_cache_hits_total", help: "Engine key-cache hits.", counter: true, value: float64(st.KeyCacheHits)},
	}
	if s.store != nil {
		rec := s.recovery
		gauges = append(gauges,
			gauge{name: "zkproverd_recovery_circuits", help: "Circuits re-registered from the store at startup.", value: float64(rec.Circuits)},
			gauge{name: "zkproverd_recovery_requeued", help: "Unfinished jobs re-queued from the store at startup.", value: float64(rec.Requeued)},
			gauge{name: "zkproverd_recovery_results", help: "Completed results restored from the store at startup.", value: float64(rec.Results)},
			gauge{name: "zkproverd_recovery_failures", help: "Terminal failures restored from the store at startup.", value: float64(rec.Failures)},
		)
		if ws, ok := s.store.(interface{ Stats() store.WALStats }); ok {
			st := ws.Stats()
			gauges = append(gauges,
				gauge{name: "zkproverd_store_segments", help: "WAL segment files on disk.", value: float64(st.Segments)},
				gauge{name: "zkproverd_store_log_bytes", help: "WAL bytes on disk across segments.", value: float64(st.LogBytes)},
				gauge{name: "zkproverd_store_appends_total", help: "Records appended to the WAL.", counter: true, value: float64(st.Appends)},
				gauge{name: "zkproverd_store_syncs_total", help: "fsyncs issued by the WAL.", counter: true, value: float64(st.Syncs)},
				gauge{name: "zkproverd_store_compactions_total", help: "WAL compactions run.", counter: true, value: float64(st.Compactions)},
			)
		}
	}
	if reg := s.cfg.Tenants; reg != nil {
		tns := reg.All()
		stats := make([]tenant.Stats, len(tns))
		for i, tn := range tns {
			stats[i] = tn.Stats()
		}
		// Same-name gauges must stay consecutive (HELP/TYPE are emitted on
		// name change), so loop per series, then per tenant.
		for _, ts := range stats {
			gauges = append(gauges, gauge{
				name: "zkproverd_tenant_inflight", help: "Unfinished jobs per tenant.",
				labels: fmt.Sprintf(`tenant=%q`, ts.ID), value: float64(ts.Inflight),
			})
		}
		for _, ts := range stats {
			gauges = append(gauges, gauge{
				name: "zkproverd_tenant_admitted_total", help: "Requests admitted per tenant.", counter: true,
				labels: fmt.Sprintf(`tenant=%q`, ts.ID), value: float64(ts.Admitted),
			})
		}
		for _, ts := range stats {
			var rej int64
			for _, v := range ts.Rejected {
				rej += v
			}
			gauges = append(gauges, gauge{
				name: "zkproverd_tenant_quota_rejections_total", help: "Quota refusals per tenant across all kinds.", counter: true,
				labels: fmt.Sprintf(`tenant=%q`, ts.ID), value: float64(rej),
			})
		}
	}
	// Rendered off the wire: WritePrometheus holds the metrics lock, which
	// the response's own request count (codeWriter) also takes.
	var body bytes.Buffer
	s.met.WritePrometheus(&body, gauges)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(body.Bytes())
}

// decodeFrs parses 32-byte big-endian field elements, enforcing canonical
// encodings.
func decodeFrs(in [][]byte) ([]ff.Fr, error) {
	out := make([]ff.Fr, len(in))
	for i, b := range in {
		if len(b) != 32 {
			return nil, fmt.Errorf("public input %d is %d bytes, want 32", i, len(b))
		}
		if !out[i].SetCanonicalBytes(b) {
			return nil, fmt.Errorf("public input %d is non-canonical", i)
		}
	}
	return out, nil
}
