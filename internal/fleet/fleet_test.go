package fleet

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/lec"
)

// exampleRequest is the canonical test request: the paper's Example 11
// query under its memory distribution.
func exampleRequest() serve.Request {
	_, q, dm := workload.Example11()
	return serve.Request{SQL: q.String(), Env: lec.Environment{Memory: dm}, Strategy: lec.AlgorithmC}
}

// newTestFleet builds an in-process loopback fleet: one serve.Service per
// name over its own copy of the Example 11 catalog, wired through one
// Loopback fabric. Hedging is disabled by default so fault tests own their
// timing; mut customizes per-node configs before construction.
func newTestFleet(t *testing.T, names []string, mut func(name string, cfg *Config, scfg *serve.Config)) map[string]*Node {
	t.Helper()
	_, nodes := newTestFleetLB(t, names, mut)
	return nodes
}

// newTestFleetLB is newTestFleet exposing the fabric, for tests that
// register joiners or deregister (kill) nodes mid-flight.
func newTestFleetLB(t *testing.T, names []string, mut func(name string, cfg *Config, scfg *serve.Config)) (*Loopback, map[string]*Node) {
	t.Helper()
	lb := NewLoopback()
	nodes := make(map[string]*Node, len(names))
	for _, name := range names {
		cat, _, _ := workload.Example11()
		scfg := serve.Config{Workers: 2}
		cfg := Config{Self: name, Peers: names, Transport: lb, HedgeDelay: -1}
		if mut != nil {
			mut(name, &cfg, &scfg)
		}
		n, err := New(serve.New(cat, scfg), cfg)
		if err != nil {
			t.Fatal(err)
		}
		lb.Register(name, n)
		nodes[name] = n
	}
	return lb, nodes
}

// ownerOf resolves the key and its owner for a request, from any node.
func ownerOf(t *testing.T, n *Node, req serve.Request) (key, owner string) {
	t.Helper()
	_, key, err := n.svc.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	return key, n.view().ring.owner(key)
}

// lookupRequestFor is the lookup a requester at generation gen sends for
// a request key.
func lookupRequestFor(key string, gen uint64) *LookupRequest {
	return &LookupRequest{Key: key, Generation: gen}
}

func totalOptimizations(nodes map[string]*Node) int64 {
	var total int64
	for _, n := range nodes {
		total += n.svc.Stats().Optimizations
	}
	return total
}

// TestFleetWideSingleFlight is the stampede proof: 8 concurrent identical
// requests on each of 3 nodes run exactly one dynamic program in the whole
// cluster. The two non-owners forward to the owner (their own requesters
// coalesced), and the owner's single-flight plan cache covers everyone.
func TestFleetWideSingleFlight(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	nodes := newTestFleet(t, names, nil)
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["n1"], req)

	const perNode = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(names)*perNode)
	for _, n := range nodes {
		for i := 0; i < perNode; i++ {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				rep, err := n.Optimize(context.Background(), req)
				if err != nil {
					errs <- err
					return
				}
				if rep.Local == nil && rep.Peer == nil {
					errs <- context.Canceled // any sentinel: reply carried no decision
				}
			}(n)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("stampede request failed: %v", err)
	}

	if total := totalOptimizations(nodes); total != 1 {
		t.Fatalf("fleet-wide stampede ran %d optimizations, want exactly 1", total)
	}
	for name, n := range nodes {
		if name == owner {
			continue
		}
		if n.c.peerHits.Load() == 0 {
			t.Errorf("non-owner %s recorded no peer hits", name)
		}
		if got := n.svc.Stats().Optimizations; got != 0 {
			t.Errorf("non-owner %s ran %d local optimizations", name, got)
		}
	}
}

// TestPartitionFallsBackLocally drops every peer lookup: a fully
// partitioned node must serve every request from its own engine, never
// fail, and count the drops.
func TestPartitionFallsBackLocally(t *testing.T) {
	nodes := newTestFleet(t, []string{"n1", "n2", "n3"}, nil)
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["n1"], req)
	var requester *Node
	for name, n := range nodes {
		if name != owner {
			requester = n
			break
		}
	}

	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.FleetPeerLookup, Kind: faultinject.KindDrop, Every: 1,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)

	rep, err := requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("partitioned request failed: %v", err)
	}
	if !rep.FellBack || rep.Local == nil || rep.Local.Decision == nil {
		t.Fatalf("partitioned request did not fall back locally: %+v", rep)
	}
	if requester.c.drops.Load() == 0 {
		t.Error("partition recorded no drops")
	}
	if requester.c.peerMisses.Load() == 0 {
		t.Error("partition recorded no peer misses")
	}
	if got := nodes[owner].svc.Stats().Optimizations; got != 0 {
		t.Errorf("owner ran %d optimizations through a partition", got)
	}
}

// amnesicTransport strips the requester's generation from outgoing
// lookups, modeling a responder that never learns how far the fleet has
// moved (the forward-adoption repair is unavailable, as with a peer
// replaying old state). Its stale replies must then be rejected.
type amnesicTransport struct{ Transport }

func (a amnesicTransport) Lookup(ctx context.Context, peer string, req *LookupRequest) (*LookupReply, error) {
	cp := *req
	cp.Generation = 0
	return a.Transport.Lookup(ctx, peer, &cp)
}

// TestStaleGenerationRejected bumps the requester's generation without
// propagation, so the owner answers under an older catalog view. The reply
// must be rejected, the request served locally, and the laggard peer
// repaired by the nudge propagation.
func TestStaleGenerationRejected(t *testing.T) {
	lb := NewLoopback()
	names := []string{"a", "b"}
	nodes := make(map[string]*Node, 2)
	for _, name := range names {
		cat, _, _ := workload.Example11()
		n, err := New(serve.New(cat, serve.Config{Workers: 2}), Config{
			Self: name, Peers: names, Transport: amnesicTransport{lb}, HedgeDelay: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		lb.Register(name, n)
		nodes[name] = n
	}
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["a"], req)
	requester := nodes["a"]
	if owner == "a" {
		requester = nodes["b"]
	}

	requester.svc.Invalidate() // local-only bump: the owner now lags
	rep, err := requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("request with stale peer failed: %v", err)
	}
	if !rep.FellBack || rep.Local == nil {
		t.Fatalf("stale peer reply was not rejected: %+v", rep)
	}
	if got := requester.c.staleRejected.Load(); got != 1 {
		t.Errorf("staleRejected = %d, want 1", got)
	}

	// The rejection nudges the laggard with an async propagate.
	deadline := time.Now().Add(5 * time.Second)
	for nodes[owner].svc.Generation() != requester.svc.Generation() {
		if time.Now().After(deadline) {
			t.Fatalf("laggard %s never repaired: gen %d vs %d",
				owner, nodes[owner].svc.Generation(), requester.svc.Generation())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSlowPeerHedges stalls the primary lookup; the hedge to the key's
// successor must win and the request must not wait out the stall.
func TestSlowPeerHedges(t *testing.T) {
	nodes := newTestFleet(t, []string{"n1", "n2", "n3"}, func(_ string, cfg *Config, _ *serve.Config) {
		cfg.HedgeDelay = 20 * time.Millisecond
	})
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["n1"], req)
	var requester *Node
	for name, n := range nodes {
		if name != owner {
			requester = n
			break
		}
	}

	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.FleetPeerLookup, Kind: faultinject.KindStall,
		After: 1, Sleep: 500 * time.Millisecond,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)

	t0 := time.Now()
	rep, err := requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("hedged request failed: %v", err)
	}
	if !rep.Hedged || !rep.HedgeWon {
		t.Fatalf("hedge did not win over the stalled owner: %+v", rep)
	}
	if rep.Local == nil && rep.Peer == nil {
		t.Fatal("hedged reply carried no decision")
	}
	if elapsed := time.Since(t0); elapsed >= 500*time.Millisecond {
		t.Errorf("hedged request took %v — it waited out the stall", elapsed)
	}
	if got := requester.c.hedges.Load(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
	if got := requester.c.hedgeWins.Load(); got != 1 {
		t.Errorf("hedgeWins = %d, want 1", got)
	}
}

// TestPressuredOwnerHedges pins the always-pressured ladder rung on the
// owner: its own requests race a local run against the successor peer
// immediately instead of queueing behind the pressure.
func TestPressuredOwnerHedges(t *testing.T) {
	nodes := newTestFleet(t, []string{"a", "b"}, func(_ string, cfg *Config, scfg *serve.Config) {
		cfg.HedgeDelay = 5 * time.Millisecond
		scfg.Ladder = []serve.Rung{{Depth: 0, Name: "pressured"}}
	})
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["a"], req)

	rep, err := nodes[owner].Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("pressured owner request failed: %v", err)
	}
	if !rep.Hedged {
		t.Fatalf("pressured owner did not hedge: %+v", rep)
	}
	if rep.Local == nil && rep.Peer == nil {
		t.Fatal("pressured-owner reply carried no decision")
	}
	if got := nodes[owner].c.hedges.Load(); got != 1 {
		t.Errorf("hedges = %d, want 1", got)
	}
}

// TestPeerPanicIsolated injects a panic into the peer-lookup branch: the
// requester must absorb it as a peer failure and fall back locally.
func TestPeerPanicIsolated(t *testing.T) {
	nodes := newTestFleet(t, []string{"n1", "n2", "n3"}, nil)
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["n1"], req)
	var requester *Node
	for name, n := range nodes {
		if name != owner {
			requester = n
			break
		}
	}

	// Every hit, not After:1 — a race-loser goroutine from an earlier
	// hedging test may still consume one lookup hit after its test ended.
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.FleetPeerLookup, Kind: faultinject.KindPanic, Every: 1,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)

	rep, err := requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("request with panicking peer branch failed: %v", err)
	}
	if !rep.FellBack || rep.Local == nil || rep.Local.Decision == nil {
		t.Fatalf("panic did not degrade to the local path: %+v", rep)
	}
	if requester.c.drops.Load() == 0 {
		t.Error("peer panic recorded no drop")
	}
}

// TestGenerationPropagation proves an invalidation at one node reaches
// every peer synchronously, that a dropped propagation leaves exactly one
// laggard, and that a lookup carrying a newer generation repairs it
// (anti-entropy without a gossip protocol).
func TestGenerationPropagation(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	nodes := newTestFleet(t, names, nil)

	if gen := nodes["n1"].Invalidate(); gen != 1 {
		t.Fatalf("first invalidation produced generation %d, want 1", gen)
	}
	for name, n := range nodes {
		if got := n.svc.Generation(); got != 1 {
			t.Fatalf("%s at generation %d after propagation, want 1", name, got)
		}
	}
	if got := nodes["n1"].c.propagateSent.Load(); got != 2 {
		t.Errorf("propagateSent = %d, want 2", got)
	}

	// Drop exactly one of the two propagations of the next bump.
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.FleetPropagate, Kind: faultinject.KindDrop, After: 1,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)
	nodes["n1"].Invalidate()
	faultinject.Disable()

	var laggard *Node
	for name, n := range nodes {
		if name == "n1" {
			continue
		}
		if n.svc.Generation() == 1 {
			if laggard != nil {
				t.Fatal("both peers lag after a single dropped propagation")
			}
			laggard = n
		}
	}
	if laggard == nil {
		t.Fatal("no peer lags after a dropped propagation")
	}

	// A lookup carrying the newer generation repairs the laggard before it
	// answers.
	req := exampleRequest()
	_, key, err := laggard.svc.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := laggard.HandleLookup(context.Background(), lookupRequestFor(key, 2)); err != nil {
		t.Fatalf("repair lookup failed: %v", err)
	}
	if got := laggard.svc.Generation(); got != 2 {
		t.Errorf("laggard at generation %d after a g2 lookup, want 2", got)
	}
}

// TestNewerPeerGenerationAdopted: a reply from a peer that is ahead moves
// this node forward instead of being served against a stale local view.
func TestNewerPeerGenerationAdopted(t *testing.T) {
	nodes := newTestFleet(t, []string{"a", "b"}, nil)
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["a"], req)
	requester := nodes["a"]
	if owner == "a" {
		requester = nodes["b"]
	}

	nodes[owner].svc.Invalidate() // owner is ahead; requester does not know
	rep, err := requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("request to newer peer failed: %v", err)
	}
	if !rep.PeerHit {
		t.Fatalf("request to newer peer was not served by it: %+v", rep)
	}
	if got := requester.svc.Generation(); got != 1 {
		t.Errorf("requester did not adopt the newer generation: %d", got)
	}
	if requester.c.adoptions.Load() == 0 {
		t.Error("no adoption counted")
	}
}

// TestDeadPeerUnreachable: a peer absent from the loopback fabric (never
// booted, crashed) is a transport error, handled exactly like a partition.
func TestDeadPeerUnreachable(t *testing.T) {
	lb := NewLoopback()
	names := []string{"live", "dead"}
	cat, _, _ := workload.Example11()
	n, err := New(serve.New(cat, serve.Config{Workers: 2}), Config{
		Self: "live", Peers: names, Transport: lb, HedgeDelay: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	lb.Register("live", n) // "dead" never registers

	// Find a request owned by the dead peer so the lookup must cross.
	req := exampleRequest()
	_, key, err := n.svc.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	if n.view().ring.owner(key) == "live" {
		// Vary the strategy to move the key to the dead peer's arc.
		for _, s := range []lec.Strategy{lec.LSCMean, lec.LSCMode, lec.AlgorithmA, lec.AlgorithmB, lec.AlgorithmD} {
			r := req
			r.Strategy = s
			if _, k, err := n.svc.Canonicalize(r); err == nil && n.view().ring.owner(k) == "dead" {
				req = r
				break
			}
		}
	}
	if _, key, _ = n.svc.Canonicalize(req); n.view().ring.owner(key) != "dead" {
		t.Skip("no example strategy hashes to the dead peer on this ring")
	}

	rep, err := n.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("request owned by a dead peer failed: %v", err)
	}
	if !rep.FellBack || rep.Local == nil {
		t.Fatalf("dead peer did not degrade to the local path: %+v", rep)
	}
	st := n.Status()
	var found bool
	for _, p := range st.Peers {
		if p.Name == "dead" && strings.Contains(p.LastError, "unreachable") {
			found = true
		}
	}
	if !found {
		t.Errorf("dead peer's unreachability not surfaced in status: %+v", st.Peers)
	}
}

// TestWireRoundTrip pins the identity contract the whole design rests on:
// flattening a canonicalized request onto the wire and rebuilding it on
// another node yields the same canonical request key.
func TestWireRoundTrip(t *testing.T) {
	catA, _, _ := workload.Example11()
	catB, _, _ := workload.Example11()
	svcA := serve.New(catA, serve.Config{})
	svcB := serve.New(catB, serve.Config{})

	_, key, err := svcA.Canonicalize(exampleRequest())
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := serve.DecodeKey(lookupRequestFor(key, 7).Key)
	if err != nil {
		t.Fatal(err)
	}
	_, key2, err := svcB.Canonicalize(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if key2 != key {
		t.Fatalf("request key changed across the wire:\n  sent     %q\n  received %q", key, key2)
	}
}
