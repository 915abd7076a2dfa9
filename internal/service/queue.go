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

// tenantFifo is one tenant's FIFO within a lane plus its deficit counter.
type tenantFifo struct {
	jobs    []*job
	deficit int64
	active  bool // in the lane's round-robin ring
}

// lane schedules one priority level's jobs with deficit round robin
// across tenants: each tenant has its own FIFO, and the ring is visited
// in order, a tenant's deficit topped up by the lane quantum per visit
// and charged the popped job's cost (its gate count). The quantum tracks
// the largest cost seen, so every visit can serve at least one job —
// pops stay O(active tenants) worst case, O(1) amortized — while the
// deficit still apportions *gates*, not job counts: a tenant submitting
// mu=16 circuits gets proportionally fewer jobs per round than one
// submitting mu=8. With a single (or anonymous) tenant the ring has one
// entry and the lane degenerates to the plain FIFO it replaced.
type lane struct {
	fifos   map[string]*tenantFifo
	ring    []string // round-robin order of tenants with queued jobs
	rr      int      // current ring position
	quantum int64
	size    int
}

func newLane() *lane {
	return &lane{fifos: make(map[string]*tenantFifo), quantum: 1}
}

func (l *lane) push(j *job) {
	f := l.fifos[j.tenantID]
	if f == nil {
		f = &tenantFifo{}
		l.fifos[j.tenantID] = f
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
		if len(l.ring) == 0 {
			l.ring = append(l.ring, j.tenantID)
		} else {
			l.ring = append(l.ring, "")
			copy(l.ring[l.rr+1:], l.ring[l.rr:])
			l.ring[l.rr] = j.tenantID
		}
	}
	f.jobs = append(f.jobs, j)
	l.size++
	if j.cost > l.quantum {
		l.quantum = j.cost
	}
}

// deactivate drops a drained tenant from the ring, resetting its deficit
// so an idle tenant cannot bank credit (standard DRR).
func (l *lane) deactivate(id string, ringIdx int) {
	f := l.fifos[id]
	f.active = false
	f.deficit = 0
	l.ring = append(l.ring[:ringIdx], l.ring[ringIdx+1:]...)
	if l.rr > ringIdx {
		l.rr--
	}
	if len(l.ring) > 0 {
		l.rr %= len(l.ring)
	} else {
		l.rr = 0
	}
}

// pop serves the next job under DRR, or nil if the lane is empty. With
// at least one queued job this always serves: every non-serving visit
// tops the visited tenant's deficit up by the quantum, so even a deficit
// driven negative by out-of-band removals recovers in bounded rounds.
// After a serve the ring advances unless the tenant's remaining deficit
// covers its next job — a tenant is never topped up twice without every
// other tenant getting a visit in between, which is what bounds any
// tenant's share of the lane to quantum gates per round.
func (l *lane) pop() *job {
	if l.size == 0 {
		return nil
	}
	for {
		id := l.ring[l.rr]
		f := l.fifos[id]
		head := f.jobs[0]
		if f.deficit < head.cost {
			f.deficit += l.quantum
		}
		if f.deficit >= head.cost {
			f.deficit -= head.cost
			f.jobs = f.jobs[1:]
			l.size--
			if len(f.jobs) == 0 {
				l.deactivate(id, l.rr)
			} else if f.deficit < f.jobs[0].cost {
				l.rr = (l.rr + 1) % len(l.ring)
			}
			return head
		}
		l.rr = (l.rr + 1) % len(l.ring)
	}
}

// remove extracts an arbitrary queued job (coalescing). The
// tenant's deficit is still charged so out-of-band departures don't
// grant extra share — it may go negative, which just delays the
// tenant's next DRR pop.
func (l *lane) remove(j *job) {
	f := l.fifos[j.tenantID]
	for i, q := range f.jobs {
		if q == j {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			break
		}
	}
	f.deficit -= j.cost
	l.size--
	if len(f.jobs) == 0 {
		for ri, id := range l.ring {
			if id == j.tenantID {
				l.deactivate(id, ri)
				break
			}
		}
	}
}

// each visits every queued job in the lane (no particular order).
func (l *lane) each(fn func(*job) bool) {
	for _, f := range l.fifos {
		for _, j := range f.jobs {
			if !fn(j) {
				return
			}
		}
	}
}

// drain empties the lane, returning every queued job.
func (l *lane) drain() []*job {
	var out []*job
	l.each(func(j *job) bool { out = append(out, j); return true })
	l.fifos = make(map[string]*tenantFifo)
	l.ring = nil
	l.rr = 0
	l.size = 0
	return out
}

// jobQueue is the service's one bounded three-lane priority queue, each
// lane fair-sharing across tenants via deficit round robin. Push is called
// by any submitter; Pop and PopMatching by any of the service's batch
// loops. Bounding happens here — a full queue rejects instead of growing,
// which is the service's backpressure point.
type jobQueue struct {
	mu     sync.Mutex
	lanes  [numPriorities]*lane // high to low
	size   int
	cap    int
	seq    uint64 // push order stamp, for PopMatching's oldest-first pick
	closed bool
	// arrived is closed and replaced by every push, waking every consumer
	// waiting on it at once: idle loops in Pop and batch collectors
	// waiting for a same-circuit arrival alike. A consumer reads it
	// (wake) before it looks at the queue, so a push landing between the
	// look and the wait closes the channel it is about to wait on.
	arrived chan struct{}
}

func newJobQueue(capacity int) *jobQueue {
	q := &jobQueue{cap: capacity, arrived: make(chan struct{})}
	for i := range q.lanes {
		q.lanes[i] = newLane()
	}
	return q
}

// Push enqueues the job; errQueueFull signals a full queue.
func (q *jobQueue) Push(j *job) error {
	return q.push(j, false)
}

// forcePush enqueues ignoring the capacity bound — the recovery path,
// where every job was admitted (and capacity-checked) by a previous
// incarnation of the daemon and dropping it would break the zero-loss
// guarantee.
func (q *jobQueue) forcePush(j *job) error {
	return q.push(j, true)
}

func (q *jobQueue) push(j *job, force bool) error {
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
	q.lanes[j.priority].push(j)
	q.size++
	close(q.arrived)
	q.arrived = make(chan struct{})
	return nil
}

// Depth returns the number of queued (not yet dispatched) jobs.
func (q *jobQueue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// tryPop removes the next job — highest non-empty lane, fair-shared
// across that lane's tenants — or nil.
func (q *jobQueue) tryPop() *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, l := range q.lanes {
		if l.size > 0 {
			if j := l.pop(); j != nil {
				q.size--
				return j
			}
		}
	}
	return nil
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

// PopMatching removes the oldest queued job for the given circuit digest
// regardless of its queue position — the coalescing primitive of the
// batch window. Priority inversion is deliberate: joining an in-flight
// batch of the same circuit is strictly faster than waiting a turn. The
// owning tenant's deficit is charged as usual, so batch-joining is
// latency-free but not share-free.
func (q *jobQueue) PopMatching(digest [32]byte) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, l := range q.lanes {
		var best *job
		l.each(func(j *job) bool {
			if j.digest == digest && (best == nil || j.pushSeq < best.pushSeq) {
				best = j
			}
			return true
		})
		if best != nil {
			l.remove(best)
			q.size--
			return best
		}
	}
	return nil
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
	var drained []*job
	for _, l := range q.lanes {
		drained = append(drained, l.drain()...)
	}
	q.size = 0
	return drained
}
