package serve

import (
	"container/list"
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// planCache is the sharded, single-flight plan cache. Each shard owns an
// LRU list plus an in-flight table; the shard mutex serializes both, which
// is what guarantees exactly one engine run per key at any moment: the
// first request registers a flight, every later identical request finds it
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
	// registered before the seal is waited for (its insert, if any, lands
	// before drain returns), one that squeaked in after runs to completion
	// but its insert is suppressed — either way no entry appears after
	// drain has returned.
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
	mu       sync.Mutex
	entries  map[cacheKey]*list.Element
	lru      list.List // front = most recent; values are *cacheEntry
	inflight map[cacheKey]*flight
}

type cacheEntry struct {
	key  cacheKey
	resp *Response
}

// flight is one in-progress optimization other requests can join.
type flight struct {
	done chan struct{}
	resp *Response
	err  error
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
		c.shards[i].inflight = make(map[cacheKey]*flight)
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
// becomes the leader and executes fn; everyone else waits for the leader's
// result (coalesced=true) or their own context. A successful, undegraded,
// unpinned leader response is inserted into the cache.
func (c *planCache) do(ctx context.Context, key cacheKey, fn func() (*Response, error)) (resp *Response, coalesced bool, err error) {
	sh := c.shard(key)
	sh.mu.Lock()
	if f, ok := sh.inflight[key]; ok {
		sh.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-f.done:
			return f.resp, true, f.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	// A flight may have completed between the caller's get and this lock.
	if el, ok := sh.entries[key]; ok {
		sh.lru.MoveToFront(el)
		c.hits.Add(1)
		r := *el.Value.(*cacheEntry).resp
		r.Cached = true
		sh.mu.Unlock()
		return &r, false, nil
	}
	f := &flight{done: make(chan struct{})}
	sh.inflight[key] = f
	sh.mu.Unlock()
	c.flightMu.Lock()
	c.flights++
	// A leader that registers before the seal is flushed: drain waits for
	// it, so its insert lands before drain returns. One that registers
	// after the seal raced the draining flag; it still serves its caller,
	// but its insert is suppressed so nothing lands post-drain.
	sealed := c.sealed
	c.flightMu.Unlock()
	c.misses.Add(1)

	f.resp, f.err = fn()

	sh.mu.Lock()
	delete(sh.inflight, key)
	if f.err == nil && !sealed && c.cacheable(f.resp) {
		c.insertLocked(sh, key, f.resp)
	}
	sh.mu.Unlock()
	close(f.done)
	c.flightMu.Lock()
	c.flights--
	if c.flights == 0 {
		c.flightCond.Broadcast()
	}
	c.flightMu.Unlock()
	return f.resp, false, f.err
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
