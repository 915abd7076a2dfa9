package service

import (
	"container/list"
	"sync"

	"zkspeed/internal/ff"
)

// cacheKey identifies a proved statement: the circuit digest binds the
// relation, the witness digest binds the assignment. Two requests share
// an entry iff both match, in which case the stored proof is byte-for-
// byte valid for the new request (the prover is deterministic given the
// transcript, and the service's one SRS is fixed).
type cacheKey struct {
	circuit, witness [32]byte
}

// cacheEntry is a completed proof ready to serve without re-proving.
type cacheEntry struct {
	proof  []byte // ZKSP wire bytes
	public []ff.Fr
}

// proofCache is a mutex-guarded LRU over completed proofs. A capacity of
// zero disables it (every lookup misses, nothing is stored).
type proofCache struct {
	mu  sync.Mutex
	cap int
	m   map[cacheKey]*list.Element
	ll  *list.List // front = most recently used
}

type cacheNode struct {
	key   cacheKey
	entry *cacheEntry
}

func newProofCache(capacity int) *proofCache {
	return &proofCache{
		cap: capacity,
		m:   make(map[cacheKey]*list.Element),
		ll:  list.New(),
	}
}

// Get returns the cached proof for the key, refreshing its recency.
func (c *proofCache) Get(k cacheKey) *cacheEntry {
	if c.cap <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheNode).entry
}

// Put stores a completed proof, evicting the least recently used entry
// beyond capacity.
func (c *proofCache) Put(k cacheKey, e *cacheEntry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		el.Value.(*cacheNode).entry = e
		c.ll.MoveToFront(el)
		return
	}
	c.m[k] = c.ll.PushFront(&cacheNode{key: k, entry: e})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheNode).key)
	}
}

// Len reports the number of cached proofs.
func (c *proofCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
