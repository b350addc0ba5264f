// Package cache provides a generic, mutex-sharded LRU cache used by the
// engine's hot paths: the query→explanations cache, the memoized Steiner
// TopK results and the forward module's emission vectors.
//
// The cache is safe for concurrent use. Keys are partitioned across a
// power-of-two number of shards by hash, so concurrent readers and writers
// on different shards never contend on the same mutex; within a shard a
// plain mutex guards a map plus an intrusive doubly-linked recency list.
// Eviction is per shard (each shard holds capacity/shards entries), which
// approximates global LRU closely enough for the skewed access patterns the
// engine sees while keeping every operation O(1) and lock-local.
package cache

import (
	"hash/maphash"
	"sync"
)

const defaultShards = 16

// LRU is a sharded least-recently-used cache from K to V.
type LRU[K comparable, V any] struct {
	shards []shard[K, V]
	mask   uint64
	seed   maphash.Seed
}

type shard[K comparable, V any] struct {
	mu       sync.Mutex
	entries  map[K]*entry[K, V]
	head     *entry[K, V] // most recently used
	tail     *entry[K, V] // least recently used
	capacity int
}

type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
}

// minPerShard is the smallest useful shard capacity: below it, two hot
// keys colliding on one shard would evict each other on every Put.
const minPerShard = 4

// New returns an LRU holding up to capacity entries (rounded up so every
// shard holds at least minPerShard). A capacity <= 0 yields a nil cache;
// the nil *LRU is valid and behaves as an always-miss cache, so callers can
// disable caching without branching.
func New[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity <= 0 {
		return nil
	}
	// Halve the shard count (power of two, for the index mask) until every
	// shard holds a useful minimum — small caches get fewer shards rather
	// than thrashing ones.
	n := defaultShards
	for n > 1 && capacity/n < minPerShard {
		n /= 2
	}
	perShard := (capacity + n - 1) / n
	c := &LRU[K, V]{
		shards: make([]shard[K, V], n),
		mask:   uint64(n - 1),
		seed:   maphash.MakeSeed(),
	}
	for i := range c.shards {
		c.shards[i].capacity = perShard
		c.shards[i].entries = make(map[K]*entry[K, V], perShard)
	}
	return c
}

func (c *LRU[K, V]) shardFor(k K) *shard[K, V] {
	return &c.shards[maphash.Comparable(c.seed, k)&c.mask]
}

// Get returns the cached value and whether it was present, refreshing the
// entry's recency.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	s.moveToFront(e)
	return e.value, true
}

// Put inserts or refreshes a value, evicting the shard's least recently
// used entry when the shard is full.
func (c *LRU[K, V]) Put(k K, v V) {
	if c == nil {
		return
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		e.value = v
		s.moveToFront(e)
		return
	}
	e := &entry[K, V]{key: k, value: v}
	s.entries[k] = e
	s.pushFront(e)
	if len(s.entries) > s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.entries, lru.key)
	}
}

// Len returns the number of cached entries across all shards.
func (c *LRU[K, V]) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (s *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard[K, V]) moveToFront(e *entry[K, V]) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
