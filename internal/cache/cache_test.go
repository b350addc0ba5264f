package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[string, int](64)
	if _, ok := c.Get("a"); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	c.Put("a", 3)
	if v, _ := c.Get("a"); v != 3 {
		t.Fatalf("Put did not overwrite: got %d", v)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	// Capacity below the shard threshold forces a single shard, making the
	// global recency order exact and testable.
	c := New[int, int](3)
	if len(c.shards) != 1 {
		t.Fatalf("capacity 3 should use 1 shard, got %d", len(c.shards))
	}
	for i := 0; i < 3; i++ {
		c.Put(i, i)
	}
	c.Get(0) // refresh 0: eviction order is now 1, 2, 0
	c.Put(3, 3)
	if _, ok := c.Get(1); ok {
		t.Fatal("1 should have been evicted as LRU")
	}
	for _, k := range []int{0, 2, 3} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
}

func TestNilCacheAlwaysMisses(t *testing.T) {
	var c *LRU[string, int]
	c.Put("a", 1) // must not panic
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has nonzero length")
	}
	if New[string, int](0) != nil || New[string, int](-1) != nil {
		t.Fatal("non-positive capacity should yield a nil cache")
	}
}

// TestSmallCapacityRetainsWorkingSet pins the shard-scaling rule: a small
// cache must hold a working set of minPerShard keys even if every key
// hashes to the same shard (the pre-scaling layout gave capacity-16 caches
// 16 single-entry shards, where two colliding keys evicted each other).
func TestSmallCapacityRetainsWorkingSet(t *testing.T) {
	c := New[int, int](16)
	for i := 0; i < minPerShard; i++ {
		c.Put(i, i)
	}
	for round := 0; round < 100; round++ {
		for i := 0; i < minPerShard; i++ {
			if _, ok := c.Get(i); !ok {
				t.Fatalf("key %d evicted from a 16-entry cache holding %d keys (round %d)", i, minPerShard, round)
			}
		}
	}
}

func TestCapacityBound(t *testing.T) {
	const capacity = 128
	c := New[int, int](capacity)
	for i := 0; i < 10*capacity; i++ {
		c.Put(i, i)
	}
	// Per-shard rounding may admit up to shards-1 extra entries.
	if n := c.Len(); n > capacity+defaultShards {
		t.Fatalf("Len = %d, exceeds capacity bound %d", n, capacity+defaultShards)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%100)
				c.Put(k, g*1000+i)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Error("corrupted value")
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 100; i++ {
		c.Get(fmt.Sprintf("k%d", i))
	}
}
