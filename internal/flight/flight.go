// Package flight is the repository's one single-flight: concurrent calls
// for the same key share one execution of the work instead of each running
// it. The plan cache in internal/serve uses it so a stampede of identical
// requests runs one engine search; the fleet layer uses it so identical
// requests on one node send one peer lookup.
package flight

import (
	"context"
	"errors"
	"sync"
)

// ErrLeaderPanicked is what followers receive when the call they joined
// panicked; the panic itself unwinds the leader's goroutine.
var ErrLeaderPanicked = errors.New("flight: leader panicked")

// Group runs at most one call per key at a time. The zero value is ready
// to use; a Group must not be copied after first use.
type Group[K comparable, V any] struct {
	// Joined, when set, runs each time a caller joins a call in progress,
	// before it waits: a count it keeps includes the callers still waiting.
	Joined func()

	mu    sync.Mutex
	calls map[K]*call[V]
}

// call is one in-progress execution other callers can join.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do runs fn for key unless a call for key is already in progress, in
// which case it waits for that call's result (shared = true) or for its own
// ctx to end (ctx.Err(), shared = true; the leader runs on). The leader's
// ctx is fn's business: a follower leaving never cancels it. The key is
// released after fn returns, so the next call for it runs fn again; fn
// finishes whatever must be visible to that next call before returning.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		if g.Joined != nil {
			g.Joined()
		}
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-ctx.Done():
			return v, true, ctx.Err()
		}
	}
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	c := &call[V]{done: make(chan struct{}), err: ErrLeaderPanicked}
	g.calls[key] = c
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}
