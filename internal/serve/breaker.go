package serve

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/lec"
)

// ErrCircuitOpen reports a request rejected because the breaker for its
// coster configuration is open and no last-good plan is pinned yet.
var ErrCircuitOpen = errors.New("serve: circuit open")

// BreakerConfig tunes the per-configuration circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive internal failures
	// (recovered panics, NaN-poisoned searches) that trips the breaker.
	// Default 3.
	FailureThreshold int
	// Cooldown is how long a tripped breaker stays open before admitting
	// one half-open probe. Default 250ms.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 250 * time.Millisecond
	}
	return c
}

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker guards one coster configuration (query × strategy × environment,
// generation-free). While open it pins requests to the last good plan the
// configuration produced — the plan cache stays honest (a generation bump
// still invalidates it), but clients keep getting *some* valid plan while
// the configuration is on fire. After Cooldown one probe is let through;
// its outcome closes or re-opens the breaker.
type breaker struct {
	key string // registry key, for eviction

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
	lastGood *lec.Decision
}

// minBreakers is the breaker registry's bound when the plan cache is
// smaller or disabled.
const minBreakers = 64

// breakerSet is the service's keyed breaker registry. It is bounded by
// limit, max(CacheCapacity, minBreakers): a new breaker beyond it evicts
// closed, zero-failure breakers, least recently used first. Such a breaker
// carries nothing but its last-good plan. Open, half-open and failing
// breakers are never evicted, so the registry outgrows limit only by the
// configurations that are misbehaving right now.
type breakerSet struct {
	mu     sync.Mutex
	m      map[string]*list.Element // of *breaker
	lru    list.List                // least recently used at the front
	limit  int
	trips  atomic.Int64
	resets atomic.Int64
}

func (bs *breakerSet) get(key string) *breaker {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if e, ok := bs.m[key]; ok {
		bs.lru.MoveToBack(e)
		return e.Value.(*breaker)
	}
	b := &breaker{key: key}
	bs.m[key] = bs.lru.PushBack(b)
	bs.evict()
	return b
}

// evict drops idle breakers, oldest first, until the registry is within
// its limit or only busy breakers and the newest one remain.
func (bs *breakerSet) evict() {
	newest := bs.lru.Back()
	for e := bs.lru.Front(); e != newest && len(bs.m) > bs.limit; {
		next := e.Next()
		if b := e.Value.(*breaker); b.idle() {
			bs.lru.Remove(e)
			delete(bs.m, b.key)
		}
		e = next
	}
}

// size returns the number of registered breakers.
func (bs *breakerSet) size() int {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return len(bs.m)
}

// idle reports whether the breaker is closed with no failures recorded, so
// forgetting it loses nothing but its last-good plan.
func (b *breaker) idle() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed && b.failures == 0 && !b.probing
}

func (bs *breakerSet) counts() (trips, resets int64) {
	return bs.trips.Load(), bs.resets.Load()
}

// allow reports whether a request may run the real optimizer now. When it
// may not, the pinned last-good plan (possibly nil) is returned instead.
// An open breaker past its cooldown moves to half-open and admits exactly
// one probe; concurrent requests during the probe stay pinned.
func (b *breaker) allow(now time.Time, cfg BreakerConfig) (admitted bool, pinned *lec.Decision) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, nil
	case breakerOpen:
		if now.Sub(b.openedAt) >= cfg.Cooldown {
			b.state = breakerHalfOpen
			b.probing = true
			return true, nil
		}
		return false, b.lastGood
	default: // half-open
		if !b.probing {
			b.probing = true
			return true, nil
		}
		return false, b.lastGood
	}
}

// fail records one internal failure; it reports true when this failure
// tripped the breaker (closed→open or a failed half-open probe).
func (b *breaker) fail(now time.Time, cfg BreakerConfig) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: straight back to open, cooldown restarts.
		b.state = breakerOpen
		b.openedAt = now
		b.probing = false
		return true
	case breakerClosed:
		b.failures++
		if b.failures >= cfg.FailureThreshold {
			b.state = breakerOpen
			b.openedAt = now
			return true
		}
	}
	return false
}

// ok records a successful (or at least non-internal) outcome; dec, when
// non-nil, becomes the pinned last-good plan. It reports true when the
// success closed a half-open breaker.
func (b *breaker) ok(dec *lec.Decision) (reset bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	reset = b.state == breakerHalfOpen
	b.state = breakerClosed
	b.failures = 0
	b.probing = false
	if dec != nil && !dec.Degraded {
		b.lastGood = dec
	}
	return reset
}
