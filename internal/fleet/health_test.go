package fleet

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
)

// TestDetectorTripProbeReadmit walks the detector through its whole life
// cycle with explicit timestamps: consecutive failures trip it, the
// cooldown gates the half-open probe, a probe failure re-suspects, and a
// probe success fully readmits.
func TestDetectorTripProbeReadmit(t *testing.T) {
	cfg := HealthConfig{TripConsecutive: 3, ProbeAfter: time.Second}.withDefaults()
	d := newDetector(cfg)
	t0 := time.Unix(1000, 0)

	if d.state != detHealthy {
		t.Fatalf("new detector state %v", d.state)
	}
	if tripped := d.fail(t0); tripped {
		t.Fatal("tripped on the first failure")
	}
	if tripped := d.fail(t0); tripped {
		t.Fatal("tripped on the second failure")
	}
	if tripped := d.fail(t0); !tripped {
		t.Fatal("did not trip on the third consecutive failure")
	}
	if d.state != detSuspect {
		t.Fatalf("state after trip = %v, want suspect", d.state)
	}

	// Inside the cooldown: nothing is admitted.
	if ok, _ := d.allow(t0.Add(cfg.ProbeAfter / 2)); ok {
		t.Fatal("suspect peer admitted inside the cooldown")
	}
	// Cooldown over: exactly one probe goes through.
	ok, probe := d.allow(t0.Add(cfg.ProbeAfter))
	if !ok || !probe {
		t.Fatalf("allow after cooldown = (%v, %v), want probe", ok, probe)
	}
	if ok, _ := d.allow(t0.Add(cfg.ProbeAfter)); ok {
		t.Fatal("second operation admitted while a probe is in flight")
	}

	// The probe fails: re-suspected, new cooldown from the failure time.
	t1 := t0.Add(cfg.ProbeAfter)
	if tripped := d.fail(t1); !tripped {
		t.Fatal("failed probe did not re-trip")
	}
	if ok, _ := d.allow(t1.Add(cfg.ProbeAfter / 2)); ok {
		t.Fatal("re-suspected peer admitted inside the new cooldown")
	}
	ok, probe = d.allow(t1.Add(cfg.ProbeAfter))
	if !ok || !probe {
		t.Fatal("no second probe after the renewed cooldown")
	}

	// The probe succeeds: fully healthy, window cleared.
	d.ok()
	if d.state != detHealthy {
		t.Fatalf("state after probe success = %v, want healthy", d.state)
	}
	if rate := d.errorRate(); rate != 0 {
		t.Fatalf("error rate after readmission = %v, want 0 (window cleared)", rate)
	}
	if d.consecutive != 0 {
		t.Fatalf("consecutive after readmission = %d", d.consecutive)
	}
}

// TestDetectorRateTrip: interleaved failures that never run consecutively
// still trip the detector once the windowed error rate crosses the
// threshold with enough samples — the slow-burn path for a flapping peer.
func TestDetectorRateTrip(t *testing.T) {
	d := newDetector(HealthConfig{
		Window: 8, TripErrorRate: 0.5, TripConsecutive: 100,
	}.withDefaults())
	t0 := time.Unix(1000, 0)

	d.ok()
	if tripped := d.fail(t0); tripped {
		t.Fatal("tripped below minSamples")
	}
	d.ok()
	// Sample 4: rate hits 2/4 = 0.5 with consecutive = 1 — the rate path.
	if tripped := d.fail(t0); !tripped {
		t.Fatalf("rate %v over %d samples did not trip", d.errorRate(), d.n)
	}
	if d.state != detSuspect {
		t.Fatalf("state = %v, want suspect", d.state)
	}
}

// stubClock is a manually advanced clock for deterministic probe timing.
type stubClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stubClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stubClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestFlappingPeerSuspectedProbedReadmitted is the flapping-peer row of
// the fault matrix, end to end: a KindFlap rule fails the owner's first
// two lookups (tripping the requester's detector), routing then skips the
// suspect without spending a wire call, and after the cooldown a single
// half-open probe lands in the flap's healthy phase and readmits the peer.
func TestFlappingPeerSuspectedProbedReadmitted(t *testing.T) {
	clk := &stubClock{now: time.Unix(1000, 0)}
	nodes := newTestFleet(t, []string{"a", "b"}, func(_ string, cfg *Config, _ *serve.Config) {
		cfg.Health = HealthConfig{TripConsecutive: 2, ProbeAfter: time.Minute}
	})
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["a"], req)
	requester := nodes["a"]
	if owner == "a" {
		requester = nodes["b"]
	}
	requester.clock = clk.Now

	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.FleetPeerLookup, Kind: faultinject.KindFlap, After: 1, Every: 2,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)

	// Failing phase: two dropped lookups trip the detector.
	for i := 0; i < 2; i++ {
		rep, err := requester.Optimize(context.Background(), req)
		if err != nil {
			t.Fatalf("request %d during failing phase errored: %v", i, err)
		}
		if !rep.FellBack {
			t.Fatalf("request %d during failing phase did not fall back: %+v", i, rep)
		}
	}
	if got := requester.c.healthTrips.Load(); got != 1 {
		t.Fatalf("healthTrips = %d, want 1", got)
	}

	// Suspect: routing skips the peer without touching the wire.
	hitsBefore := in.Hits(faultinject.FleetPeerLookup)
	rep, err := requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("request against suspect peer errored: %v", err)
	}
	if rep.Local == nil {
		t.Fatalf("request against suspect peer not served locally: %+v", rep)
	}
	if rep.SuspectsSkipped != 1 {
		t.Errorf("SuspectsSkipped = %d, want 1", rep.SuspectsSkipped)
	}
	if got := in.Hits(faultinject.FleetPeerLookup); got != hitsBefore {
		t.Errorf("suspect routing still spent %d wire calls", got-hitsBefore)
	}
	if got := requester.c.healthSkips.Load(); got == 0 {
		t.Error("no health skips counted")
	}
	if st := peerStatus(t, requester, owner); st.State != "suspect" {
		t.Errorf("peer state = %q, want suspect", st.State)
	}

	// Cooldown over: the probe is admitted, lands in the flap's healthy
	// phase (hits 3-4 pass), and readmits the peer.
	clk.Advance(2 * time.Minute)
	rep, err = requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("probe request errored: %v", err)
	}
	if !rep.PeerHit {
		t.Fatalf("probe request not served by the peer: %+v", rep)
	}
	if got := requester.c.healthProbes.Load(); got != 1 {
		t.Errorf("healthProbes = %d, want 1", got)
	}
	if st := peerStatus(t, requester, owner); st.State != "healthy" {
		t.Errorf("peer state after probe success = %q, want healthy", st.State)
	}
}

// peerStatus extracts one peer's row from the node's status snapshot.
func peerStatus(t *testing.T, n *Node, peer string) PeerStatus {
	t.Helper()
	for _, p := range n.Status().Peers {
		if p.Name == peer {
			return p
		}
	}
	t.Fatalf("peer %s not in status", peer)
	return PeerStatus{}
}

// TestQueueDepthPiggyback: a lookup reply carries the owner's admission
// queue depth, and the requester records it for /clusterz.
func TestQueueDepthPiggyback(t *testing.T) {
	nodes := newTestFleet(t, []string{"a", "b"}, nil)
	req := exampleRequest()
	_, owner := ownerOf(t, nodes["a"], req)
	requester := nodes["a"]
	if owner == "a" {
		requester = nodes["b"]
	}
	if _, err := requester.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	st := peerStatus(t, requester, owner)
	if st.QueueDepth != 0 {
		t.Errorf("idle owner queue depth = %d, want 0", st.QueueDepth)
	}
	if st.State != "healthy" {
		t.Errorf("owner state = %q", st.State)
	}
	// The self row reports the live local queue.
	self := peerStatus(t, requester, requester.cfg.Self)
	if !self.Self {
		t.Error("self row not marked")
	}
}
