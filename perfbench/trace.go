package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one client request
// share req; parent is the id of the span that caused this one (0 for a
// root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is how untraced runs pay only a nil check.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanCtx struct{ req, id int64 }

type spanKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

func spanFrom(ctx context.Context) (spanCtx, bool) {
	sc, ok := ctx.Value(spanKey{}).(spanCtx)
	return sc, ok
}

// request opens a new client request: a root span with a fresh request id.
func (r *recorder) request(ctx context.Context, name string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	id := r.ids.Add(1)
	return r.open(withSpan(ctx, spanCtx{req: id}), name)
}

// start opens a span under the span carried by ctx, if any.
func (r *recorder) start(ctx context.Context, name string) (context.Context, func()) {
	if r == nil {
		return ctx, func() {}
	}
	return r.open(ctx, name)
}

func (r *recorder) open(ctx context.Context, name string) (context.Context, func()) {
	parent, _ := spanFrom(ctx)
	s := span{Name: name, Req: parent.req, ID: r.ids.Add(1), Parent: parent.id, Start: int64(time.Since(r.epoch))}
	return withSpan(ctx, spanCtx{req: parent.req, id: s.ID}), func() {
		s.End = int64(time.Since(r.epoch))
		r.mu.Lock()
		r.spans = append(r.spans, s)
		r.mu.Unlock()
	}
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
