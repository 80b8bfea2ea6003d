package flight

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// joinCounter hooks g's Joined and returns a wait that blocks until n
// callers have joined a call in progress.
func joinCounter[K comparable, V any](t *testing.T, g *Group[K, V]) (wait func(n int32)) {
	var joined atomic.Int32
	g.Joined = func() { joined.Add(1) }
	return func(n int32) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for joined.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d callers joined", joined.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// leader starts a call for key on g whose fn blocks until release closes
// and then returns (v, err); it returns once fn is running. done receives
// the leader's own result.
func leader[K comparable, V any](g *Group[K, V], key K, v V, err error, release <-chan struct{}) (done <-chan error) {
	in := make(chan struct{})
	out := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(context.Background(), key, func() (V, error) {
			close(in)
			<-release
			return v, err
		})
		if shared {
			err = errors.New("leader reported shared")
		}
		out <- err
	}()
	<-in
	return out
}

// TestDoCoalesces: callers that arrive while the leader runs share its
// one fn call and its value, and only they report shared.
func TestDoCoalesces(t *testing.T) {
	var g Group[string, int]
	wait := joinCounter(t, &g)
	release := make(chan struct{})
	leaderDone := leader(&g, "k", 42, nil, release)

	const followers = 8
	type out struct {
		v      int
		shared bool
		err    error
	}
	results := make(chan out, followers)
	for i := 0; i < followers; i++ {
		go func() {
			v, shared, err := g.Do(context.Background(), "k", func() (int, error) {
				t.Error("a follower ran fn while the leader held the key")
				return 0, nil
			})
			results <- out{v, shared, err}
		}()
	}
	wait(followers)
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for i := 0; i < followers; i++ {
		if r := <-results; r.err != nil || r.v != 42 || !r.shared {
			t.Fatalf("follower got (%d, shared %v, %v), want (42, true, nil)", r.v, r.shared, r.err)
		}
	}
}

// TestFollowerCancelLeavesLeader: a follower whose context ends returns
// ctx.Err() at once; the leader runs on and returns its own result.
func TestFollowerCancelLeavesLeader(t *testing.T) {
	var g Group[string, int]
	wait := joinCounter(t, &g)
	release := make(chan struct{})
	leaderDone := leader(&g, "k", 7, nil, release)

	ctx, cancel := context.WithCancel(context.Background())
	followerDone := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(ctx, "k", func() (int, error) {
			t.Error("the follower ran fn while the leader held the key")
			return 0, nil
		})
		if !shared {
			err = errors.New("follower not reported shared")
		}
		followerDone <- err
	}()
	wait(1)
	cancel()
	select {
	case err := <-followerDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled follower kept waiting for the leader")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader after its follower left: %v", err)
	}
}

// TestLeaderErrorReachesFollowers: the leader's error is every follower's
// error.
func TestLeaderErrorReachesFollowers(t *testing.T) {
	var g Group[int, string]
	wait := joinCounter(t, &g)
	boom := errors.New("boom")
	release := make(chan struct{})
	leaderDone := leader(&g, 1, "", boom, release)

	const followers = 4
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		go func() {
			_, _, err := g.Do(context.Background(), 1, func() (string, error) { return "ran", nil })
			errs <- err
		}()
	}
	wait(followers)
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader got %v, want its own error", err)
	}
	for i := 0; i < followers; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("follower got %v, want the leader's error", err)
		}
	}
}

// TestKeyReleasedAfterCall: a finished call leaves nothing behind — the
// next call for the same key runs fn again and is not shared — and a
// panicking fn releases the key too, failing its followers with
// ErrLeaderPanicked.
func TestKeyReleasedAfterCall(t *testing.T) {
	var g Group[string, int]
	var runs atomic.Int32
	fn := func() (int, error) { return int(runs.Add(1)), nil }
	for want := 1; want <= 3; want++ {
		v, shared, err := g.Do(context.Background(), "k", fn)
		if err != nil || shared || v != want {
			t.Fatalf("call %d = (%d, shared %v, %v), want (%d, false, nil)", want, v, shared, err, want)
		}
	}

	wait := joinCounter(t, &g)
	release := make(chan struct{})
	in := make(chan struct{})
	go func() {
		defer func() { recover() }()
		g.Do(context.Background(), "p", func() (int, error) {
			close(in)
			<-release
			panic("leader fault")
		})
	}()
	<-in
	followerDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "p", fn)
		followerDone <- err
	}()
	wait(1)
	close(release)
	if err := <-followerDone; !errors.Is(err, ErrLeaderPanicked) {
		t.Fatalf("follower of a panicked leader got %v, want ErrLeaderPanicked", err)
	}
	if _, shared, err := g.Do(context.Background(), "p", fn); shared || err != nil {
		t.Fatalf("key still held after the leader panicked: shared %v, err %v", shared, err)
	}
}
