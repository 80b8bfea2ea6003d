package opt

import (
	"context"
	"sync"
	"unsafe"

	"repro/internal/plan"
)

// Session recycling. Most of what an engine session allocates is scratch:
// the plan arena's intern tables and node slabs, the predicate lists
// attached to join nodes, the dense DP tables and the dense subset-size
// memos. A caller that keeps only a detached copy of the winning plan
// (plan.Detach) has no further use for any of it, and can hand it to the
// next session instead of leaving it to the collector.
//
// Pooled marks a request context for this. Every engine session an entry
// point builds under it draws its scratch from a bounded package pool at
// the start of its first run, and the release function Pooled returns
// gives back the scratch of every such session. A session that recovered a
// panic, was interrupted (deadline, cancellation, budget) or priced a
// non-finite cost is dropped rather than pooled, and so is one whose
// scratch grew past poolMaxBytes. Contexts without the mark, which is every
// caller but the lec facade, build sessions exactly as before.

const (
	// poolSlots bounds the number of idle scratches the pool keeps.
	poolSlots = 8
	// poolMaxBytes is the largest scratch the pool keeps. A session that
	// outgrew it, such as a 20-relation star whose arena alone runs to
	// hundreds of megabytes, is left to the collector.
	poolMaxBytes = 2 << 20
)

// scratch is the reusable backing of one engine session.
type scratch struct {
	arena       *plan.Arena
	dp          []dpEntry
	top         [][]topEntry
	rows, pages []float64 // dense subset-size memo backings
}

// bytes approximates the memory the scratch retains.
func (sc *scratch) bytes() int {
	return sc.arena.Bytes() +
		cap(sc.dp)*int(unsafe.Sizeof(dpEntry{})) +
		cap(sc.top)*int(unsafe.Sizeof([]topEntry(nil))) +
		(cap(sc.rows)+cap(sc.pages))*8
}

// scratchPool is the bounded free list of idle scratches.
var scratchPool struct {
	mu   sync.Mutex
	free []*scratch
}

// getScratch returns an idle scratch, or a new empty one.
func getScratch() *scratch {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if n := len(scratchPool.free); n > 0 {
		sc := scratchPool.free[n-1]
		scratchPool.free[n-1] = nil
		scratchPool.free = scratchPool.free[:n-1]
		return sc
	}
	return &scratch{arena: plan.NewArena()}
}

// putScratch empties sc and returns it to the pool. It reports false, and
// leaves sc to the collector, when sc is oversized or the pool is full.
func putScratch(sc *scratch) bool {
	if sc.bytes() > poolMaxBytes {
		return false
	}
	sc.arena.Reset()
	// Stale entries would pin the previous session's scans and nodes.
	clear(sc.dp[:cap(sc.dp)])
	clear(sc.top[:cap(sc.top)])
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	if len(scratchPool.free) >= poolSlots {
		return false
	}
	scratchPool.free = append(scratchPool.free, sc)
	return true
}

// leaseKey is the context key under which Pooled stores its lease.
type leaseKey struct{}

// lease records the sessions that drew scratch under one pooled context.
type lease struct {
	mu       sync.Mutex
	sessions []*Optimizer
}

// Pooled returns a child of rc under which engine sessions recycle their
// scratch, and the function that gives it back. Call release once, after
// the last use of every plan the sessions produced: detach the plans to
// keep (plan.Detach) first, because release hands their nodes to the next
// session. Results and sessions built under the context must not be used
// after release. release(false) reports that the request failed: its
// sessions are dropped, not pooled, however clean they look.
func Pooled(rc context.Context) (pooled context.Context, release func(ok bool)) {
	l := &lease{}
	return context.WithValue(rc, leaseKey{}, l), l.release
}

// adopt gives o's session pooled scratch if rc carries a lease. It runs at
// the start of every run and acts only on the first, while the session's
// arena and tables are still empty.
func (o *Optimizer) adopt(rc context.Context) {
	if o.adopted || rc == nil {
		return
	}
	o.adopted = true
	l, _ := rc.Value(leaseKey{}).(*lease)
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	sc := getScratch()
	o.sc = sc
	o.ctx.arena = sc.arena
	o.dpt.spare, o.topt.spare = sc.dp, sc.top
	o.ctx.subsetRows.spare, o.ctx.subsetPages.spare = sc.rows, sc.pages
	l.sessions = append(l.sessions, o)
}

// release returns the scratch of every clean session under the lease; with
// ok false it drops them all.
func (l *lease) release(ok bool) {
	l.mu.Lock()
	sessions := l.sessions
	l.sessions = nil
	l.mu.Unlock()
	for _, o := range sessions {
		o.releaseScratch(ok)
	}
}

// releaseScratch takes the scratch back from o and, if ok and the session
// ended clean, pools it. Either way o gives up every reference into the
// scratch and must not run again.
func (o *Optimizer) releaseScratch(ok bool) {
	sc, ctx := o.sc, o.ctx
	sc.dp, sc.top = o.dpt.backing(), o.topt.backing()
	sc.rows, sc.pages = ctx.subsetRows.backing(), ctx.subsetPages.backing()
	o.sc, o.dpt, o.topt = nil, subsetTab[dpEntry]{}, subsetTab[[]topEntry]{}
	ctx.arena, ctx.subsetRows, ctx.subsetPages = nil, nil, nil
	if ok && ctx.reusable() {
		putScratch(sc)
	}
}

// reusable reports whether the session ended clean enough to recycle its
// scratch: never interrupted, no recovered panic, no non-finite cost.
func (ctx *Context) reusable() bool {
	return !ctx.interrupted && ctx.Count.PanicsRecovered == 0 && ctx.Count.NonFiniteCosts == 0
}
