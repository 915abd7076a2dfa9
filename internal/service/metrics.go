package service

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// proveBuckets are the latency histogram bounds in seconds, spanning a
// cached mu=4 proof (sub-millisecond) to a cold mu=18 one (minutes).
var proveBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// holdBuckets bound how long a batch was held open, in seconds: an unheld
// batch lands in the first bucket, a hold runs to BatchWindow (5 ms by
// default) at most.
var holdBuckets = []float64{0.00001, 0.0001, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.05, 0.25, 1}

// histogram is one Prometheus histogram of seconds.
type histogram struct {
	bounds []float64
	counts []int64 // per bucket, not cumulative; the last is +Inf
	sum    float64
	count  int64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(sec float64) {
	h.count++
	h.sum += sec
	// SearchFloat64s returns the first bucket whose bound is >= sec; index
	// len(bounds) is the +Inf overflow bucket.
	h.counts[sort.SearchFloat64s(h.bounds, sec)]++
}

// write renders the histogram in text exposition format.
func (h *histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprint(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, h.sum)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count)
}

// Metrics is the service's Prometheus-style instrumentation: counters and
// two histograms, rendered in text exposition format at /metrics.
// It is deliberately dependency-free — the repository bakes in no client
// library, so the service carries the ~hundred lines itself.
type Metrics struct {
	mu sync.Mutex

	jobsDone     int64
	jobsFailed   int64
	jobsRejected int64
	cacheHits    int64
	batches      int64
	batchJobs    int64
	verifies     int64
	verifyFailed int64

	httpByCode map[string]int64 // "PATTERN|CODE" → count

	// tenantJobs attributes terminal outcomes per tenant id; "" rows
	// (anonymous jobs) are rendered with tenant="anonymous".
	tenantJobs map[string]*tenantCounters

	prove histogram // per unique proof
	hold  histogram // per batch, from its circuit being set up to the batch closing

	stepSeconds map[string]float64

	// ewmaProveSec tracks recent per-proof latency for Retry-After
	// estimates; 0 until the first batch completes.
	ewmaProveSec float64
}

// tenantCounters are one tenant's terminal-outcome counts.
type tenantCounters struct {
	done, failed, rejected int64
}

// tenantOutcome selects the tenantCounters field observeTenant bumps.
type tenantOutcome int

const (
	tenantDone tenantOutcome = iota
	tenantFailed
	tenantRejected
)

func newMetrics() *Metrics {
	return &Metrics{
		httpByCode:  make(map[string]int64),
		tenantJobs:  make(map[string]*tenantCounters),
		prove:       newHistogram(proveBuckets),
		hold:        newHistogram(holdBuckets),
		stepSeconds: make(map[string]float64),
	}
}

// observeTenant attributes one terminal job outcome to a tenant.
func (m *Metrics) observeTenant(id string, o tenantOutcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.tenantJobs[id]
	if c == nil {
		c = &tenantCounters{}
		m.tenantJobs[id] = c
	}
	switch o {
	case tenantDone:
		c.done++
	case tenantFailed:
		c.failed++
	case tenantRejected:
		c.rejected++
	}
}

func (m *Metrics) add(field *int64, n int64) {
	m.mu.Lock()
	*field += n
	m.mu.Unlock()
}

// observeProve records one proof's latency and step decomposition.
func (m *Metrics) observeProve(d time.Duration, steps map[string]time.Duration) {
	sec := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.prove.observe(sec)
	for k, v := range steps {
		m.stepSeconds[k] += v.Seconds()
	}
	const alpha = 0.3
	if m.ewmaProveSec == 0 {
		m.ewmaProveSec = sec
	} else {
		m.ewmaProveSec = alpha*sec + (1-alpha)*m.ewmaProveSec
	}
}

// observeHold records how long one batch was held open for more jobs
// (not counting a first batch's setup); 0 when it was not.
func (m *Metrics) observeHold(d time.Duration) {
	m.mu.Lock()
	m.hold.observe(d.Seconds())
	m.mu.Unlock()
}

// observeHTTP counts one served request by route pattern and status code.
func (m *Metrics) observeHTTP(pattern string, code int) {
	m.mu.Lock()
	m.httpByCode[fmt.Sprintf("%s|%d", pattern, code)]++
	m.mu.Unlock()
}

// retryAfter estimates how long an overloaded queue needs to drain depth
// jobs with loops batch loops draining it in parallel, bounded to
// [1s, 120s] so the header is always actionable.
func (m *Metrics) retryAfter(depth, loops int) time.Duration {
	m.mu.Lock()
	per := m.ewmaProveSec
	m.mu.Unlock()
	if per == 0 {
		per = 0.5 // no proof measured yet; assume a modest circuit
	}
	d := time.Duration(per * (float64(depth)/float64(loops) + 1) * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	if d > 2*time.Minute {
		d = 2 * time.Minute
	}
	return d
}

// Snapshot is a consistent copy of the counters, for tests and /healthz.
type MetricsSnapshot struct {
	JobsDone, JobsFailed, JobsRejected int64
	CacheHits                          int64
	Batches, BatchJobs                 int64
	Verifies, VerifyFailed             int64
	ProveCount                         int64
}

func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MetricsSnapshot{
		JobsDone: m.jobsDone, JobsFailed: m.jobsFailed, JobsRejected: m.jobsRejected,
		CacheHits: m.cacheHits,
		Batches:   m.batches, BatchJobs: m.batchJobs,
		Verifies: m.verifies, VerifyFailed: m.verifyFailed,
		ProveCount: m.prove.count,
	}
}

// gauge is one externally-sourced value (queue depth, registered
// circuits, backend setup counters). counter marks monotonic series so
// the exposition declares the right TYPE.
type gauge struct {
	name, help string
	labels     string // rendered label set, e.g. `tenant="acme"`, may be empty
	value      float64
	counter    bool
}

// WritePrometheus renders everything in text exposition format. Gauges
// are passed in by the service so the metrics type stays free of
// references back into it.
func (m *Metrics) WritePrometheus(w io.Writer, gauges []gauge) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, pairs ...[2]string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, p := range pairs {
			fmt.Fprintf(w, "%s%s %s\n", name, p[0], p[1])
		}
	}
	counter("zkproverd_jobs_total", "Proving jobs by terminal status.",
		[2]string{`{status="done"}`, fmt.Sprint(m.jobsDone)},
		[2]string{`{status="failed"}`, fmt.Sprint(m.jobsFailed)},
		[2]string{`{status="rejected"}`, fmt.Sprint(m.jobsRejected)},
		[2]string{`{status="cached"}`, fmt.Sprint(m.cacheHits)})
	counter("zkproverd_batches_total", "ProveBatch calls issued to backends.",
		[2]string{"", fmt.Sprint(m.batches)})
	counter("zkproverd_batch_jobs_total", "Jobs carried inside ProveBatch calls.",
		[2]string{"", fmt.Sprint(m.batchJobs)})
	counter("zkproverd_verifies_total", "Verification requests by outcome.",
		[2]string{`{valid="true"}`, fmt.Sprint(m.verifies - m.verifyFailed)},
		[2]string{`{valid="false"}`, fmt.Sprint(m.verifyFailed)})

	fmt.Fprintf(w, "# HELP zkproverd_step_seconds_total Cumulative prover time by protocol step.\n# TYPE zkproverd_step_seconds_total counter\n")
	steps := make([]string, 0, len(m.stepSeconds))
	for k := range m.stepSeconds {
		steps = append(steps, k)
	}
	sort.Strings(steps)
	for _, k := range steps {
		fmt.Fprintf(w, "zkproverd_step_seconds_total{step=%q} %g\n", k, m.stepSeconds[k])
	}

	if len(m.tenantJobs) > 0 {
		fmt.Fprintf(w, "# HELP zkproverd_tenant_jobs_total Terminal job outcomes by tenant.\n# TYPE zkproverd_tenant_jobs_total counter\n")
		ids := make([]string, 0, len(m.tenantJobs))
		for id := range m.tenantJobs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			c := m.tenantJobs[id]
			name := id
			if name == "" {
				name = "anonymous"
			}
			fmt.Fprintf(w, "zkproverd_tenant_jobs_total{tenant=%q,status=\"done\"} %d\n", name, c.done)
			fmt.Fprintf(w, "zkproverd_tenant_jobs_total{tenant=%q,status=\"failed\"} %d\n", name, c.failed)
			fmt.Fprintf(w, "zkproverd_tenant_jobs_total{tenant=%q,status=\"rejected\"} %d\n", name, c.rejected)
		}
	}

	fmt.Fprintf(w, "# HELP zkproverd_http_requests_total Served HTTP requests by route and code.\n# TYPE zkproverd_http_requests_total counter\n")
	routes := make([]string, 0, len(m.httpByCode))
	for k := range m.httpByCode {
		routes = append(routes, k)
	}
	sort.Strings(routes)
	for _, k := range routes {
		pattern, code, _ := strings.Cut(k, "|")
		fmt.Fprintf(w, "zkproverd_http_requests_total{route=%q,code=%q} %d\n", pattern, code, m.httpByCode[k])
	}

	m.prove.write(w, "zkproverd_prove_seconds", "Proving latency per job.")
	m.hold.write(w, "zkproverd_batch_hold_seconds", "How long each batch was held open for more jobs.")

	// Gauges arrive ordered by the service; emit HELP/TYPE once per name
	// even when a name repeats with different label sets (per-tenant rows).
	prev := ""
	for _, g := range gauges {
		if g.name != prev {
			typ := "gauge"
			if g.counter {
				typ = "counter"
			}
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", g.name, g.help, g.name, typ)
			prev = g.name
		}
		if g.labels != "" {
			fmt.Fprintf(w, "%s{%s} %g\n", g.name, g.labels, g.value)
		} else {
			fmt.Fprintf(w, "%s %g\n", g.name, g.value)
		}
	}
}
