package fleet

import (
	"context"
	"testing"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

// renormalizes reports whether stats.New, given d's own support and
// probabilities, moves any probability: the drift a wire rebuild through
// stats.New used to cause.
func renormalizes(t *testing.T, d *stats.Dist) bool {
	t.Helper()
	r, err := stats.New(d.Support(), d.Probs())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		if r.Prob(i) != d.Prob(i) {
			return true
		}
	}
	return false
}

// driftingRequest returns Example 1.1's query under a lognormal memory
// distribution that stats.New would renormalize.
func driftingRequest(t *testing.T) serve.Request {
	t.Helper()
	for b := 2; b <= 12; b++ {
		dm, err := workload.LognormalMemDist(850, 0.8, b)
		if err != nil {
			t.Fatal(err)
		}
		if renormalizes(t, dm) {
			req := exampleRequest()
			req.Env.Memory = dm
			return req
		}
	}
	t.Fatal("no lognormal distribution in the sweep renormalizes; the drift tests cover nothing")
	return serve.Request{}
}

// TestWireRoundTripKeepsKeyBits sends canonicalized requests over a wide
// sweep of memory distributions through the wire codec and back, and
// requires every rebuilt request to canonicalize to the sender's key. A
// third of the sweep renormalizes under stats.New, so a rebuild that
// renormalized would fail here.
func TestWireRoundTripKeepsKeyBits(t *testing.T) {
	catA, _, _ := workload.Example11()
	catB, _, _ := workload.Example11()
	svcA := serve.New(catA, serve.Config{})
	svcB := serve.New(catB, serve.Config{})
	drifting := 0
	for b := 2; b <= 12; b++ {
		for mean := 100.0; mean < 3000; mean += 250 {
			dm, err := workload.LognormalMemDist(mean, 0.8, b)
			if err != nil {
				t.Fatal(err)
			}
			if renormalizes(t, dm) {
				drifting++
			}
			req := exampleRequest()
			req.Env.Memory = dm
			bound, key, err := svcA.Canonicalize(req)
			if err != nil {
				t.Fatal(err)
			}
			var got LookupRequest
			if err := unmarshal(marshal(lookupRequestFor(t, key, bound, 1)), &got); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := got.Spec.toServe()
			if err != nil {
				t.Fatal(err)
			}
			_, key2, err := svcB.Canonicalize(rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			if key2 != key {
				t.Fatalf("b=%d mean=%v: request key changed across the wire:\n  sent     %q\n  received %q", b, mean, key, key2)
			}
		}
	}
	if drifting == 0 {
		t.Fatal("no distribution in the sweep renormalizes; the test covers nothing")
	}
}

// TestWireRejectsUnnormalized checks that the exact rebuild still refuses
// malformed distributions instead of repairing them.
func TestWireRejectsUnnormalized(t *testing.T) {
	for name, r := range map[string]WarmSpec{
		"unnormalized": {MemVals: []float64{100, 200}, MemProbs: []float64{1, 1}},
		"descending":   {MemVals: []float64{200, 100}, MemProbs: []float64{0.5, 0.5}},
		"duplicate":    {MemVals: []float64{100, 100}, MemProbs: []float64{0.5, 0.5}},
		"zero prob":    {MemVals: []float64{100, 200}, MemProbs: []float64{0, 1}},
		"mismatched":   {MemVals: []float64{100, 200}, MemProbs: []float64{1}},
	} {
		if _, err := r.toServe(); err == nil {
			t.Errorf("%s: toServe accepted %v / %v", name, r.MemVals, r.MemProbs)
		}
	}
}

// TestOwnerAndPeerReadOneEngineRun reads one key at its owner and then
// through a non-owner. The peer lookup must land on the owner's cached
// plan: one engine run fleet-wide, not one per spelling of the key.
func TestOwnerAndPeerReadOneEngineRun(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	nodes := newTestFleet(t, names, nil)
	req := driftingRequest(t)
	_, owner := ownerOf(t, nodes["n1"], req)
	ctx := context.Background()

	if _, err := nodes[owner].Optimize(ctx, req); err != nil {
		t.Fatal(err)
	}
	var other string
	for _, name := range names {
		if name != owner {
			other = name
			break
		}
	}
	rep, err := nodes[other].Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Peer == nil {
		t.Fatalf("non-owner %s did not answer through the owner: %+v", other, rep)
	}
	if total := totalOptimizations(nodes); total != 1 {
		t.Fatalf("one key read at its owner and through a peer ran %d optimizations, want 1", total)
	}
	if !rep.Peer.Cached {
		t.Errorf("owner did not serve the peer from its cache: %+v", rep.Peer)
	}
}
