package serve

import (
	"container/list"
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/flight"
)

// planCache is the sharded, single-flight plan cache. Each shard owns an
// LRU list under its mutex plus a flight.Group over its keys, which is
// what guarantees exactly one engine run per key at any moment: the first
// request leads the key's call, every later identical request joins it
// and waits.
//
// Keys embed the catalog generation (cacheKey), so bumping the generation
// makes every old entry unreachable instantly; purgeBelow then reclaims
// their LRU space.
type planCache struct {
	shards   []cacheShard
	seed     maphash.Seed
	capacity int // per shard; <0 disables caching (single-flight still works)

	hits          atomic.Int64
	misses        atomic.Int64
	coalesced     atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64

	// flightMu/flightCond guard the live-leader count and the seal. drain
	// seals the cache and waits for flights to reach zero; a leader that
	// counted itself before the seal is waited for (its insert, if any,
	// lands before drain returns), one that squeaked in after runs to
	// completion but its insert is suppressed — either way no entry
	// appears after drain has returned.
	flightMu   sync.Mutex
	flightCond *sync.Cond
	flights    int
	sealed     bool
}

// cacheKey is one request at one catalog generation: the request key
// (requestKey) and the generation it was bound under.
type cacheKey struct {
	gen  uint64
	spec string
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*list.Element
	lru     list.List // front = most recent; values are *cacheEntry
	flights flight.Group[cacheKey, *Response]
}

type cacheEntry struct {
	key  cacheKey
	resp *Response
}

func newPlanCache(shards, capacity int) *planCache {
	perShard := capacity / shards
	if capacity > 0 && perShard < 1 {
		perShard = 1
	}
	if capacity < 0 {
		perShard = -1
	}
	c := &planCache{shards: make([]cacheShard, shards), seed: maphash.MakeSeed(), capacity: perShard}
	c.flightCond = sync.NewCond(&c.flightMu)
	for i := range c.shards {
		c.shards[i].entries = make(map[cacheKey]*list.Element)
		c.shards[i].flights.Joined = func() { c.coalesced.Add(1) }
	}
	return c
}

// shard picks key's shard by the request key's hash. Shard choice is local
// to this cache, so the hash is seeded per process.
func (c *planCache) shard(key cacheKey) *cacheShard {
	return &c.shards[maphash.String(c.seed, key.spec)%uint64(len(c.shards))]
}

// get serves a cached response, refreshing its LRU position. The returned
// Response is a copy flagged Cached; its Decision is shared.
func (c *planCache) get(key cacheKey) (*Response, bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.entries[key]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	c.hits.Add(1)
	r := *el.Value.(*cacheEntry).resp
	r.Cached = true
	return &r, true
}

// do runs fn under single-flight discipline for key: the first caller
// leads and executes fn; everyone else waits for the leader's result
// (coalesced=true) or their own context. A successful, undegraded,
// unpinned leader response is inserted into the cache.
func (c *planCache) do(ctx context.Context, key cacheKey, fn func() (*Response, error)) (resp *Response, coalesced bool, err error) {
	sh := c.shard(key)
	return sh.flights.Do(ctx, key, func() (*Response, error) {
		return c.lead(sh, key, fn)
	})
}

// lead is the leader's turn, all of it done before the group releases the
// key: serve an entry a flight inserted between the caller's get and the
// group's lock as a hit, otherwise count the miss, run fn, and insert its
// response unless the cache was sealed when this leader counted itself.
func (c *planCache) lead(sh *cacheShard, key cacheKey, fn func() (*Response, error)) (*Response, error) {
	if r, ok := c.get(key); ok {
		return r, nil
	}
	c.flightMu.Lock()
	c.flights++
	sealed := c.sealed
	c.flightMu.Unlock()
	defer c.landed()
	c.misses.Add(1)

	resp, err := fn()
	if err == nil && !sealed && c.cacheable(resp) {
		sh.mu.Lock()
		c.insertLocked(sh, key, resp)
		sh.mu.Unlock()
	}
	return resp, err
}

// landed retires one leader from the count drain waits on.
func (c *planCache) landed() {
	c.flightMu.Lock()
	c.flights--
	if c.flights == 0 {
		c.flightCond.Broadcast()
	}
	c.flightMu.Unlock()
}

// drain seals the cache against further inserts and waits until every
// in-flight single-flight leader has finished (insert included). After
// drain returns the cache contents are final: a snapshot taken then can
// never race a late insert.
func (c *planCache) drain() {
	c.flightMu.Lock()
	c.sealed = true
	for c.flights > 0 {
		c.flightCond.Wait()
	}
	c.flightMu.Unlock()
}

// cacheable rejects responses that must not outlive the condition that
// produced them: degraded plans exist because of load or faults at serve
// time, and pinned plans are the breaker's business, not the cache's.
func (c *planCache) cacheable(r *Response) bool {
	return c.capacity > 0 && r != nil && r.Decision != nil && !r.Decision.Degraded && !r.Pinned
}

func (c *planCache) insertLocked(sh *cacheShard, key cacheKey, resp *Response) {
	if el, ok := sh.entries[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		sh.lru.MoveToFront(el)
		return
	}
	sh.entries[key] = sh.lru.PushFront(&cacheEntry{key: key, resp: resp})
	for sh.lru.Len() > c.capacity {
		oldest := sh.lru.Back()
		sh.lru.Remove(oldest)
		delete(sh.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// purgeBelow drops every entry from a generation older than gen. Entries
// are already unreachable (keys hold the generation); this reclaims their
// space eagerly and counts them as invalidations.
func (c *planCache) purgeBelow(gen uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); e.key.gen < gen {
				sh.lru.Remove(el)
				delete(sh.entries, e.key)
				c.invalidations.Add(1)
			}
			el = next
		}
		sh.mu.Unlock()
	}
}

func (c *planCache) counters() (hits, misses, coalesced, evictions, invalidations int64) {
	return c.hits.Load(), c.misses.Load(), c.coalesced.Load(),
		c.evictions.Load(), c.invalidations.Load()
}
