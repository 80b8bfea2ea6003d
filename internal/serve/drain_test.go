package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/workload"
	"repro/lec"
)

// decisionFixture builds one undegraded Decision for cache white-box tests.
func decisionFixture(t *testing.T) *lec.Decision {
	t.Helper()
	cat, q, dm := workload.Example11()
	dec, err := lec.New(cat).Optimize(q, lec.Environment{Memory: dm}, lec.AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestBeginDrainFlushesParkedLeaders is the snapshot-on-drain regression:
// a single-flight leader parked mid-optimization (KindHold at
// serve/optimize) must be flushed — BeginDrain blocks until the leader
// finishes and its cache insert has landed, so a snapshot taken after
// BeginDrain returns can never race a late insert.
func TestBeginDrainFlushesParkedLeaders(t *testing.T) {
	svc, req := newExample11Service(t, Config{Workers: 2})
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.ServeOptimize, Kind: faultinject.KindHold, After: 1,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)
	t.Cleanup(in.Release)

	leaderDone := make(chan error, 1)
	go func() {
		_, err := svc.Optimize(context.Background(), req)
		leaderDone <- err
	}()

	// Wait until the leader is parked inside the engine-run hold.
	deadline := time.Now().Add(5 * time.Second)
	for in.Holding(faultinject.ServeOptimize) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leader never parked (holding=%d)", in.Holding(faultinject.ServeOptimize))
		}
		time.Sleep(time.Millisecond)
	}

	drained := make(chan struct{})
	go func() {
		svc.BeginDrain()
		close(drained)
	}()

	// With the leader parked, BeginDrain must not report drained.
	select {
	case <-drained:
		t.Fatal("BeginDrain returned while a single-flight leader was parked")
	case <-time.After(50 * time.Millisecond):
	}
	if !svc.Draining() {
		t.Fatal("service not in draining mode while BeginDrain waits")
	}

	in.Release()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("BeginDrain did not return after the parked leader was released")
	}
	if err := <-leaderDone; err != nil {
		t.Fatalf("parked leader failed: %v", err)
	}

	// The flushed leader's insert landed before drain reported done.
	bound, _, err := svc.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.cache.get(svc.key(bound.Query, bound.canon, bound)); !ok {
		t.Fatal("parked leader's response missing from the cache after drain")
	}
}

// TestDrainSealsLateInserts pins the other half of the drain contract: a
// leader that slips in after the seal still serves its caller, but its
// insert is suppressed — the cache contents are final once drain returns.
func TestDrainSealsLateInserts(t *testing.T) {
	c := newPlanCache(2, 16)
	c.drain()
	resp, coalesced, err := c.do(context.Background(), cacheKey{spec: "late"}, func() (*Response, error) {
		return &Response{Decision: decisionFixture(t)}, nil
	})
	if err != nil || coalesced {
		t.Fatalf("do after drain: resp=%v coalesced=%v err=%v", resp, coalesced, err)
	}
	if resp == nil || resp.Decision == nil {
		t.Fatal("late leader was not served")
	}
	if _, ok := c.get(cacheKey{spec: "late"}); ok {
		t.Fatal("late insert landed in a drained cache")
	}
}

// TestPanickedLeaderReleasesKey: a leader whose run panics (net/http
// recovers a handler's panic, so the daemon lives on) holds neither its
// key nor a place in drain's count afterwards: the next request for the
// key runs instead of waiting on the dead flight, and drain returns.
func TestPanickedLeaderReleasesKey(t *testing.T) {
	c := newPlanCache(2, 16)
	key := cacheKey{spec: "boom"}
	func() {
		defer func() { recover() }()
		c.do(context.Background(), key, func() (*Response, error) { panic("leader fault") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	resp, coalesced, err := c.do(ctx, key, func() (*Response, error) {
		return &Response{Decision: decisionFixture(t)}, nil
	})
	if err != nil || coalesced || resp == nil {
		t.Fatalf("request after a panicked leader: resp=%v coalesced=%v err=%v", resp, coalesced, err)
	}
	drained := make(chan struct{})
	go func() {
		c.drain()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drain waited on a leader that had panicked")
	}
}
