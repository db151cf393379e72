package core

import (
	"math"
	"sync"
	"testing"

	"strgindex/internal/dist"
)

func TestDistCacheGetPut(t *testing.T) {
	c := newDistCache(64)
	if _, ok := c.Get(1, 2); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, 2, 3.5)
	if d, ok := c.Get(1, 2); !ok || d != 3.5 {
		t.Fatalf("Get = (%v, %v), want (3.5, true)", d, ok)
	}
	// Bit-exactness for special values.
	c.Put(4, 5, math.Inf(1))
	if d, ok := c.Get(4, 5); !ok || !math.IsInf(d, 1) {
		t.Fatalf("Get(+Inf entry) = (%v, %v)", d, ok)
	}
	// Overwrite keeps a single entry.
	c.Put(1, 2, 7.0)
	if d, _ := c.Get(1, 2); d != 7.0 {
		t.Fatalf("overwrite lost: %v", d)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}

func TestDistCacheLRUEviction(t *testing.T) {
	// Capacity 16 over 16 shards = 1 entry per shard: inserting two keys
	// mapping to the same shard evicts the older one.
	c := newDistCache(16)
	// Keys (0, s) land in shard s&15; use the same shard twice.
	c.Put(0, 16, 1) // shard 0
	c.Put(0, 32, 2) // shard 0 again -> evicts (0, 16)
	if _, ok := c.Get(0, 16); ok {
		t.Fatal("oldest entry survived past capacity")
	}
	if d, ok := c.Get(0, 32); !ok || d != 2 {
		t.Fatalf("newest entry missing: (%v, %v)", d, ok)
	}
}

func TestDistCacheLRURecency(t *testing.T) {
	// Two entries per shard: touching the older one flips the eviction
	// order.
	c := newDistCache(32)
	c.Put(0, 16, 1)
	c.Put(0, 32, 2)
	c.Get(0, 16) // refresh the older entry
	c.Put(0, 48, 3)
	if _, ok := c.Get(0, 16); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get(0, 32); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestDistCacheGenerationInvalidation(t *testing.T) {
	c := newDistCache(64)
	c.Put(1, 2, 3)
	c.Bump()
	if _, ok := c.Get(1, 2); ok {
		t.Fatal("stale-generation entry served")
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("stale entry retained after contact: Len = %d", n)
	}
	// A fresh Put under the new generation works.
	c.Put(1, 2, 4)
	if d, ok := c.Get(1, 2); !ok || d != 4 {
		t.Fatalf("post-bump Put lost: (%v, %v)", d, ok)
	}
}

func TestDistCacheConcurrent(t *testing.T) {
	c := newDistCache(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := uint64(i % 64)
				c.Put(k, k*31, float64(k))
				if d, ok := c.Get(k, k*31); ok && d != float64(k) {
					t.Errorf("worker %d: wrong value %v for key %d", w, d, k)
				}
				if i%97 == 0 {
					c.Bump()
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestVideoDBDistCache wires the cache through the full database surface:
// repeated queries return identical matches, and an ingest invalidates via
// the generation bump without changing results.
func TestVideoDBDistCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Concurrency = 2
	cfg.DistCacheSize = -1 // DefaultDistCacheSize
	db := Open(cfg)
	if db.cache == nil {
		t.Fatal("negative DistCacheSize did not enable the cache")
	}
	plain := Open(DefaultConfig())

	stream := miniStream(t, 12, 21)
	if err := db.IngestStream(stream); err != nil {
		t.Fatal(err)
	}
	if err := plain.IngestStream(stream); err != nil {
		t.Fatal(err)
	}

	q := make(dist.Sequence, 10)
	for i := range q {
		q[i] = dist.Vec{16 + float64(i)*30, 120}
	}
	want := knnExact(t, plain, q, 5)
	for round := 0; round < 3; round++ {
		got := knnExact(t, db, q, 5)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d matches, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d match %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
	if db.cache.Len() == 0 {
		t.Fatal("cache empty after repeated queries")
	}

	// Ingest bumps the touched shard's generation: the next query
	// repopulates rather than serving stale entries, and results still
	// match a cache-free database.
	genSum := func() uint64 {
		var n uint64
		for i := range db.cache.gens {
			n += db.cache.gens[i].Load()
		}
		return n
	}
	gen := genSum()
	extra := miniStream(t, 4, 22)
	if err := db.IngestStream(extra); err != nil {
		t.Fatal(err)
	}
	if err := plain.IngestStream(extra); err != nil {
		t.Fatal(err)
	}
	if genSum() == gen {
		t.Fatal("ingest did not bump any cache shard generation")
	}
	got := knnExact(t, db, q, 5)
	want = knnExact(t, plain, q, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("post-ingest match %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
