package service

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestQueueConcurrentConsumers hammers one queue with concurrent
// producers and three consumers shaped like batch loops — Pop, then
// PopMatching for the popped job's digest — across all three lanes. Every
// pushed job must come out exactly once — no double-pop, no loss. Run
// with -race; the assertions catch logic races, the detector catches
// memory races.
func TestQueueConcurrentConsumers(t *testing.T) {
	const (
		producers   = 4
		perProducer = 300
		consumers   = 3
		total       = producers * perProducer
	)
	q := newJobQueue(total)

	digests := [3][32]byte{{1}, {2}, {3}}
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				j := &job{
					id:       fmt.Sprintf("p%d-%d", p, i),
					digest:   digests[i%len(digests)],
					priority: i % numPriorities,
					done:     make(chan struct{}),
				}
				if err := q.Push(j); err != nil {
					t.Errorf("push %s: %v", j.id, err)
					return
				}
			}
		}(p)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	seen := make(map[string]int, total)
	record := func(j *job) bool {
		mu.Lock()
		defer mu.Unlock()
		seen[j.id]++
		return len(seen) >= total
	}

	var loops sync.WaitGroup
	for c := 0; c < consumers; c++ {
		loops.Add(1)
		go func() {
			defer loops.Done()
			for {
				j, err := q.Pop(ctx)
				if err != nil {
					return
				}
				full := record(j)
				for !full {
					j2 := q.PopMatching(j.digest)
					if j2 == nil {
						break
					}
					full = record(j2)
				}
				if full {
					cancel()
					return
				}
			}
		}()
	}

	wg.Wait()
	loops.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != total {
		t.Fatalf("drained %d distinct jobs, want %d (lost %d)", len(seen), total, total-len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("job %s consumed %d times", id, n)
		}
	}
	if q.Depth() != 0 {
		t.Fatalf("queue depth %d after drain, want 0", q.Depth())
	}
}
