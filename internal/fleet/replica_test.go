package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/lec"
)

// exampleRequestVariants is the example request under each strategy —
// six distinct plan-cache keys spread across the ring.
func exampleRequestVariants() []serve.Request {
	base := exampleRequest()
	out := []serve.Request{base}
	for _, s := range []lec.Strategy{lec.LSCMean, lec.LSCMode, lec.AlgorithmA, lec.AlgorithmB, lec.AlgorithmD} {
		r := base
		r.Strategy = s
		out = append(out, r)
	}
	return out
}

// replicaFleet builds a 3-node fleet with R=2 and returns the primary,
// the standby replica, and the remaining node for the example key.
func replicaFleet(t *testing.T) (lb *Loopback, nodes map[string]*Node, key string, primary, standby, other *Node) {
	t.Helper()
	lb, nodes = newTestFleetLB(t, []string{"a", "b", "c"}, func(_ string, cfg *Config, _ *serve.Config) {
		cfg.Replicas = 2
	})
	req := exampleRequest()
	var err error
	_, key, err = nodes["a"].svc.Canonicalize(req)
	if err != nil {
		t.Fatal(err)
	}
	chain := nodes["a"].view().ring.sequence(key, 2)
	primary, standby = nodes[chain[0]], nodes[chain[1]]
	for name, n := range nodes {
		if name != chain[0] && name != chain[1] {
			other = n
		}
	}
	return lb, nodes, key, primary, standby, other
}

// hasWarm reports whether the node's warm set holds the key.
func hasWarm(n *Node, key string) bool {
	n.warmMu.Lock()
	defer n.warmMu.Unlock()
	_, ok := n.warmSet[key]
	return ok
}

// TestReplicaPushWarmsStandby: with R=2, a fresh plan computed by the
// primary is pushed — as a request key, not a plan — to the standby
// replica, which replays it through its own optimizer.
func TestReplicaPushWarmsStandby(t *testing.T) {
	_, _, key, primary, standby, other := replicaFleet(t)
	req := exampleRequest()

	rep, err := other.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PeerHit || rep.PeerNode != primary.Self() {
		t.Fatalf("request not served by the primary %s: %+v", primary.Self(), rep)
	}
	waitFor(t, 5*time.Second, "the replica push to land", func() bool {
		return hasWarm(standby, key) && standby.Status().WarmFills >= 1
	})
	if got := primary.c.replicaPushes.Load(); got != 1 {
		t.Errorf("replicaPushes = %d, want 1", got)
	}
	if got := standby.svc.Stats().Optimizations; got != 1 {
		t.Errorf("standby ran %d engine runs replaying the push, want 1", got)
	}
}

// TestPrimaryDeathServedByReplica is the R=2 acceptance path: after the
// primary dies, a lookup fails over to the warm standby and is served
// from its cache — no request error, no fresh engine run anywhere.
func TestPrimaryDeathServedByReplica(t *testing.T) {
	lb, nodes, key, primary, standby, other := replicaFleet(t)
	req := exampleRequest()
	if _, err := other.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the replica push to land", func() bool {
		return hasWarm(standby, key) && standby.Status().WarmFills >= 1
	})

	lb.Deregister(primary.Self()) // the primary restarts; its range must not go cold

	before := totalOptimizations(nodes)
	rep, err := other.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("request after primary death failed: %v", err)
	}
	if !rep.PeerHit || rep.PeerNode != standby.Self() {
		t.Fatalf("request not failed over to the standby %s: %+v", standby.Self(), rep)
	}
	if !rep.Peer.Cached {
		t.Errorf("standby served a cold plan — the replica push did not warm it")
	}
	if got := other.c.failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if after := totalOptimizations(nodes); after != before {
		t.Errorf("primary death cost %d fresh engine runs, want 0", after-before)
	}
}

// TestReplicaDivergenceHealsByGeneration is the replica-divergence row of
// the fault matrix: the standby's warm plan predates an invalidation, the
// primary dies, and the failover must serve a *fresh* plan at the new
// generation — never the stale warm one.
func TestReplicaDivergenceHealsByGeneration(t *testing.T) {
	lb, _, key, primary, standby, other := replicaFleet(t)
	req := exampleRequest()
	if _, err := other.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the replica push to land", func() bool {
		return hasWarm(standby, key) && standby.Status().WarmFills >= 1
	})

	other.Invalidate() // fleet-wide generation bump: every warm plan is now stale
	lb.Deregister(primary.Self())

	before := standby.svc.Stats().Optimizations
	rep, err := other.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("request after divergence failed: %v", err)
	}
	if !rep.PeerHit || rep.PeerNode != standby.Self() {
		t.Fatalf("request not served by the standby: %+v", rep)
	}
	if rep.Peer.Cached {
		t.Error("standby served its pre-invalidation plan as a cache hit")
	}
	if got := standby.svc.Stats().Optimizations; got != before+1 {
		t.Errorf("standby ran %d fresh engine runs, want exactly 1", got-before)
	}
	if got := standby.svc.Generation(); got != other.svc.Generation() {
		t.Errorf("standby answered at generation %d, local is %d", got, other.svc.Generation())
	}
}

// TestDroppedReplicaPushStaysCorrect: losing the replica push costs only
// warmth. When the primary then dies, the cold standby recomputes the
// plan fresh — one engine run, zero request errors.
func TestDroppedReplicaPushStaysCorrect(t *testing.T) {
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.FleetHandoff, Kind: faultinject.KindDrop, Every: 1,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)

	lb, _, key, primary, standby, other := replicaFleet(t)
	req := exampleRequest()
	if _, err := other.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the dropped push to be counted", func() bool {
		return primary.c.handoffFailed.Load() >= 1
	})
	if hasWarm(standby, key) {
		t.Fatal("standby warmed despite the dropped push")
	}

	lb.Deregister(primary.Self())
	rep, err := other.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("request after primary death failed: %v", err)
	}
	if !rep.PeerHit || rep.Peer.Cached {
		t.Fatalf("cold standby should have served fresh: %+v", rep)
	}
	if got := standby.svc.Stats().Optimizations; got != 1 {
		t.Errorf("standby ran %d engine runs, want 1", got)
	}
}

// TestKillOneNodeMidLoadZeroErrors: with R=2, killing one node while
// concurrent load is in flight produces zero request errors — every
// affected lookup fails over to the replica or falls back locally.
func TestKillOneNodeMidLoadZeroErrors(t *testing.T) {
	lb, nodes, _, primary, _, _ := replicaFleet(t)
	reqs := exampleRequestVariants()

	var survivors []*Node
	for _, n := range nodes {
		if n != primary {
			survivors = append(survivors, n)
		}
	}

	const workers = 6
	const perWorker = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				n := survivors[(w+i)%len(survivors)]
				req := reqs[(w*perWorker+i)%len(reqs)]
				if _, err := n.Optimize(context.Background(), req); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond) // let the first wave get in flight
	lb.Deregister(primary.Self())
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request failed during the kill: %v", err)
	}
}
