package core

import (
	"container/list"
	"sync"
	"sync/atomic"

	"strgindex/internal/index"
)

// NewDistCache returns a standalone bounded distance cache implementing
// index.DistCache, for callers assembling an index.Config directly
// (benchmarks, embedders). A VideoDB manages its own instance — including
// the per-ingest generation bump — via Config.DistCacheSize.
func NewDistCache(capacity int) index.DistCache {
	if capacity <= 0 {
		capacity = DefaultDistCacheSize
	}
	return newDistCache(capacity)
}

// distCache is the database's bounded, sharded LRU distance cache,
// implementing index.DistCache. Entries are keyed by the pair of content
// hashes (query sequence, stored sequence); the key metric is fixed per
// cache instance — each VideoDB owns one cache scoped to its tree's key
// metric, so the effective cache identity is the ISSUE's (query hash,
// sequence id, metric) triple.
//
// Correctness: content hashing makes entries self-validating — a stored
// value is the deterministic kernel's output for exactly those float64
// bits, so a hit is bit-identical to re-evaluating and results cannot go
// stale even across ingests. The generation counter is belt and braces on
// top of that: every ingest bumps it, and entries written under an older
// generation are treated as misses (and evicted on contact), so even a
// future non-content-addressed key scheme could not serve a stale value.
//
// Concurrency: the tree calls Get/Put from its worker pool, so the cache
// shards by key hash and serializes each shard under its own mutex. A
// race between two workers computing the same pair is benign — both write
// the identical bits.
//
// Generations are tracked per index shard (the cache implements
// index.ShardAwareDistCache, so entries carry the shard their record
// lives in): an ingest bumps only the shard it committed to, keeping
// every other shard's warm entries servable. The table is sized to
// index.MaxShards; entries written through the plain Put (non-sharded
// callers) live in generation slot 0.
type distCache struct {
	gens   [index.MaxShards]atomic.Uint64
	shards []cacheShard
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	m   map[cacheKey]*list.Element
	lru *list.List // front = most recent
}

type cacheKey struct {
	q, s uint64
}

type cacheEntry struct {
	key   cacheKey
	d     float64
	gen   uint64
	shard uint32
}

// cacheShards is the fixed shard count — a small power of two; the worker
// pool never exceeds the CPU count by much, so 16 shards keep contention
// negligible without scattering the LRU too thin.
const cacheShards = 16

// newDistCache builds a cache bounded at capacity entries (spread over the
// shards). Capacity must be positive.
func newDistCache(capacity int) *distCache {
	per := (capacity + cacheShards - 1) / cacheShards
	if per < 1 {
		per = 1
	}
	c := &distCache{shards: make([]cacheShard, cacheShards)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			cap: per,
			m:   make(map[cacheKey]*list.Element),
			lru: list.New(),
		}
	}
	return c
}

func (c *distCache) shard(k cacheKey) *cacheShard {
	// Mix the two hashes; they are already FNV-1a outputs, so the low bits
	// of their XOR spread well across 16 shards.
	return &c.shards[(k.q^k.s)&(cacheShards-1)]
}

// Bump advances every shard generation, invalidating every cached entry.
func (c *distCache) Bump() {
	for i := range c.gens {
		c.gens[i].Add(1)
	}
}

// BumpShard advances one index shard's generation, invalidating only the
// entries whose records live there. Called after each ingest commit with
// the shard the commit routed to.
func (c *distCache) BumpShard(shard uint32) {
	c.gens[shard%index.MaxShards].Add(1)
}

// Get implements index.DistCache.
func (c *distCache) Get(query, seq uint64) (float64, bool) {
	k := cacheKey{q: query, s: seq}
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.m[k]
	if !ok {
		cacheMisses.Inc()
		return 0, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != c.gens[e.shard%index.MaxShards].Load() {
		// Stale generation: drop it rather than refresh it, so the slot is
		// reusable and the invalidation protocol is observable.
		sh.lru.Remove(el)
		delete(sh.m, k)
		cacheEvictions.Inc()
		cacheMisses.Inc()
		return 0, false
	}
	sh.lru.MoveToFront(el)
	cacheHits.Inc()
	return e.d, true
}

// Put implements index.DistCache (entries land in generation slot 0).
func (c *distCache) Put(query, seq uint64, d float64) {
	c.PutShard(query, seq, d, 0)
}

// PutShard implements index.ShardAwareDistCache: the entry is stamped
// with its record's index shard, so only that shard's ingests invalidate
// it.
func (c *distCache) PutShard(query, seq uint64, d float64, shard uint32) {
	k := cacheKey{q: query, s: seq}
	shard %= index.MaxShards
	gen := c.gens[shard].Load()
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.m[k]; ok {
		e := el.Value.(*cacheEntry)
		e.d, e.gen, e.shard = d, gen, shard
		sh.lru.MoveToFront(el)
		return
	}
	if sh.lru.Len() >= sh.cap {
		// Evict by recycling: the oldest element and its entry become the
		// new pair's, so a full cache — the steady state of a query load,
		// which puts one entry per DP it runs — allocates nothing.
		oldest := sh.lru.Back()
		e := oldest.Value.(*cacheEntry)
		delete(sh.m, e.key)
		cacheEvictions.Inc()
		*e = cacheEntry{key: k, d: d, gen: gen, shard: shard}
		sh.lru.MoveToFront(oldest)
		sh.m[k] = oldest
		return
	}
	sh.m[k] = sh.lru.PushFront(&cacheEntry{key: k, d: d, gen: gen, shard: shard})
}

// Len reports the current number of cached entries (for tests and stats).
func (c *distCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}
