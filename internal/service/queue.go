package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// OverloadedError is returned by Submit when the service's queue is
// full. The HTTP layer maps it to 429 with a Retry-After header; the
// estimate is derived from the queue depth and the recent per-proof
// latency, so a client that honors it lands after the backlog drains.
type OverloadedError struct {
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: queue full, retry after %s", e.RetryAfter)
}

// errQueueFull is the queue's internal full signal; Submit converts it to
// an OverloadedError with a drain estimate (computed only on rejection —
// the estimate costs two lock acquisitions the happy path should not pay).
var errQueueFull = errors.New("service: queue full")

// tenantFifo is one tenant's FIFO within the queue plus its deficit
// counter.
type tenantFifo struct {
	jobs    []*job
	deficit int64
	active  bool // in the queue's round-robin ring
}

// jobQueue is the service's one bounded queue. Push is called by any
// submitter; Pop and collect by any of the service's batch loops.
// Bounding happens here — a full queue rejects instead of growing, which
// is the service's backpressure point.
//
// It schedules the queued jobs with deficit round robin (DRR) across
// tenants: each tenant has its own FIFO, and the ring is visited in
// order, a tenant's deficit topped up by the quantum per visit and
// charged the popped job's cost (its gate count). The quantum tracks the
// largest cost seen, so every visit can serve at least one job — pops
// stay O(active tenants) worst case, O(1) amortized — while the deficit
// still apportions *gates*, not job counts: a tenant submitting mu=16
// circuits gets proportionally fewer jobs per round than one submitting
// mu=8. With a single (or anonymous) tenant the ring has one entry and
// the queue is a plain FIFO.
type jobQueue struct {
	mu      sync.Mutex
	fifos   map[string]*tenantFifo
	ring    []string // round-robin order of tenants with queued jobs
	rr      int      // current ring position
	quantum int64
	size    int
	cap     int
	seq     uint64 // push order stamp, for collect's oldest-first pick
	closed  bool
	// arrived is closed and replaced by every push and every ended
	// admission, waking every consumer waiting on it at once: idle loops
	// in Pop and batch collectors waiting for a same-circuit arrival
	// alike. A consumer reads it before it looks at the queue, so a push
	// landing between the look and the wait closes the channel it is
	// about to wait on.
	arrived chan struct{}
	// admitting counts submissions on their way in: a request whose body
	// is still being read, decoded or logged. Batch collectors hold a
	// batch open only while it is above zero.
	admitting int
}

func newJobQueue(capacity int) *jobQueue {
	return &jobQueue{
		fifos:   make(map[string]*tenantFifo),
		quantum: 1,
		cap:     capacity,
		arrived: make(chan struct{}),
	}
}

// enqueueLocked appends j to its tenant's FIFO. The caller holds q.mu.
func (q *jobQueue) enqueueLocked(j *job) {
	f := q.fifos[j.tenantID]
	if f == nil {
		f = &tenantFifo{}
		q.fifos[j.tenantID] = f
	}
	if !f.active {
		f.active = true
		// A newly-(re)activated tenant enters at the CURRENT ring
		// position, not the tail: the next pop serves it, so a
		// quota-respecting tenant's latency behind a saturating one is
		// bounded by the in-flight job plus its own — never a full round
		// of someone else's backlog. This cannot be gamed for
		// throughput: re-activation requires the fifo to have drained
		// (forfeiting any backlog) and deactivation resets the deficit,
		// so each entry is worth at most one quantum ahead of turn.
		if len(q.ring) == 0 {
			q.ring = append(q.ring, j.tenantID)
		} else {
			q.ring = append(q.ring, "")
			copy(q.ring[q.rr+1:], q.ring[q.rr:])
			q.ring[q.rr] = j.tenantID
		}
	}
	f.jobs = append(f.jobs, j)
	q.size++
	if j.cost > q.quantum {
		q.quantum = j.cost
	}
}

// deactivateLocked drops a drained tenant from the ring, resetting its
// deficit so an idle tenant cannot bank credit (standard DRR). The caller
// holds q.mu.
func (q *jobQueue) deactivateLocked(id string, ringIdx int) {
	f := q.fifos[id]
	f.active = false
	f.deficit = 0
	q.ring = append(q.ring[:ringIdx], q.ring[ringIdx+1:]...)
	if q.rr > ringIdx {
		q.rr--
	}
	if len(q.ring) > 0 {
		q.rr %= len(q.ring)
	} else {
		q.rr = 0
	}
}

// popLocked serves the next job under DRR, or nil if the queue is empty.
// With at least one queued job this always serves: every non-serving
// visit tops the visited tenant's deficit up by the quantum, so even a
// deficit driven negative by out-of-band removals recovers in bounded
// rounds. After a serve the ring advances unless the tenant's remaining
// deficit covers its next job — a tenant is never topped up twice
// without every other tenant getting a visit in between, which is what
// bounds any tenant's share of the queue to quantum gates per round. The
// caller holds q.mu.
func (q *jobQueue) popLocked() *job {
	if q.size == 0 {
		return nil
	}
	for {
		id := q.ring[q.rr]
		f := q.fifos[id]
		head := f.jobs[0]
		if f.deficit < head.cost {
			f.deficit += q.quantum
		}
		if f.deficit >= head.cost {
			f.deficit -= head.cost
			f.jobs = f.jobs[1:]
			q.size--
			if len(f.jobs) == 0 {
				q.deactivateLocked(id, q.rr)
			} else if f.deficit < f.jobs[0].cost {
				q.rr = (q.rr + 1) % len(q.ring)
			}
			return head
		}
		q.rr = (q.rr + 1) % len(q.ring)
	}
}

// removeLocked extracts an arbitrary queued job (coalescing). The
// tenant's deficit is still charged so out-of-band departures don't
// grant extra share — it may go negative, which just delays the
// tenant's next DRR pop. The caller holds q.mu.
func (q *jobQueue) removeLocked(j *job) {
	f := q.fifos[j.tenantID]
	for i, x := range f.jobs {
		if x == j {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			break
		}
	}
	f.deficit -= j.cost
	q.size--
	if len(f.jobs) == 0 {
		for ri, id := range q.ring {
			if id == j.tenantID {
				q.deactivateLocked(id, ri)
				break
			}
		}
	}
}

// eachLocked visits every queued job (no particular order) until fn
// returns false. The caller holds q.mu.
func (q *jobQueue) eachLocked(fn func(*job) bool) {
	for _, f := range q.fifos {
		for _, j := range f.jobs {
			if !fn(j) {
				return
			}
		}
	}
}

// admission is one submission on its way into the queue, from the moment
// a request arrives until the push that queues its job or an exit that
// queues nothing. Ending it is idempotent, so a deferred end after the
// push is free; a nil admission is inert.
type admission struct {
	q    *jobQueue
	done bool // guarded by q.mu
}

// admit begins an admission.
func (q *jobQueue) admit() *admission {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.admitting++
	return &admission{q: q}
}

// end closes the admission without a push, waking every collector so one
// that was waiting for it can prove at once.
func (a *admission) end() {
	if a == nil {
		return
	}
	a.q.mu.Lock()
	defer a.q.mu.Unlock()
	if a.closeLocked() {
		a.q.wakeLocked()
	}
}

// closeLocked drops the admission from the count once, reporting whether
// this call did it. The caller holds q.mu.
func (a *admission) closeLocked() bool {
	if a == nil || a.done {
		return false
	}
	a.done = true
	a.q.admitting--
	return true
}

// Push enqueues the job and, under the same lock and with the same
// wake-up, ends the admission that carried it (nil: none, or not yet —
// a batch ends its one admission with its last statement's push).
// errQueueFull signals a full queue; the admission then stays open for
// its owner to end.
func (q *jobQueue) Push(j *job, a *admission) error {
	return q.push(j, a, false)
}

// forcePush enqueues ignoring the capacity bound — the recovery path,
// where every job was admitted (and capacity-checked) by a previous
// incarnation of the daemon and dropping it would break the zero-loss
// guarantee.
func (q *jobQueue) forcePush(j *job) error {
	return q.push(j, nil, true)
}

func (q *jobQueue) push(j *job, a *admission, force bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errors.New("service: shutting down")
	}
	if !force && q.size >= q.cap {
		return errQueueFull
	}
	q.seq++
	j.pushSeq = q.seq
	q.enqueueLocked(j)
	a.closeLocked()
	q.wakeLocked()
	return nil
}

// wakeLocked wakes every waiting consumer. The caller holds q.mu.
func (q *jobQueue) wakeLocked() {
	close(q.arrived)
	q.arrived = make(chan struct{})
}

// Depth returns the number of queued (not yet dispatched) jobs.
func (q *jobQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Admitting returns the number of submissions on their way in.
func (q *jobQueue) Admitting() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.admitting
}

// tryPop removes the next job, fair-shared across tenants, or nil.
func (q *jobQueue) tryPop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.popLocked()
}

// Pop blocks until a job is available or the context is cancelled.
func (q *jobQueue) Pop(ctx context.Context) (*job, error) {
	for {
		arrived := q.wake()
		if j := q.tryPop(); j != nil {
			return j, nil
		}
		select {
		case <-arrived:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// collect is a batch collector's one look at the queue. It removes the
// oldest queued job for digest regardless of its queue position — the
// coalescing primitive: joining an in-flight batch of the same circuit is
// strictly faster than waiting a turn, and the owning tenant's deficit is
// charged as usual, so batch-joining is latency-free but not share-free.
// With no such job it returns the channel the next push or ended
// admission closes, and whether any admission is still open.
func (q *jobQueue) collect(digest [32]byte) (match *job, arrived <-chan struct{}, admitting bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var best *job
	q.eachLocked(func(j *job) bool {
		if j.digest == digest && (best == nil || j.pushSeq < best.pushSeq) {
			best = j
		}
		return true
	})
	if best != nil {
		q.removeLocked(best)
		return best, nil, false
	}
	return nil, q.arrived, q.admitting > 0
}

// anyQueued reports whether a queued job of digest satisfies pred.
func (q *jobQueue) anyQueued(digest [32]byte, pred func(*job) bool) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	found := false
	q.eachLocked(func(j *job) bool {
		found = j.digest == digest && pred(j)
		return !found
	})
	return found
}

// wake returns the channel the next push closes. Read it before looking
// at the queue, not after, or an arrival in between goes unseen.
func (q *jobQueue) wake() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.arrived
}

// Close marks the queue rejecting and drains every queued job so the
// caller can fail them.
func (q *jobQueue) Close() []*job {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	var out []*job
	q.eachLocked(func(j *job) bool { out = append(out, j); return true })
	q.fifos = make(map[string]*tenantFifo)
	q.ring = nil
	q.rr = 0
	q.size = 0
	return out
}
