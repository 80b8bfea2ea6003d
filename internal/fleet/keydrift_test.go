package fleet

import (
	"context"
	"testing"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/wire"
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
			_, key, err := svcA.Canonicalize(req)
			if err != nil {
				t.Fatal(err)
			}
			var got LookupRequest
			if err := unmarshal(marshal(lookupRequestFor(key, 1)), &got); err != nil {
				t.Fatal(err)
			}
			rebuilt, err := serve.DecodeKey(got.Key)
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

// TestWireRejectsUnnormalized checks that decoding a received request key
// still refuses malformed distributions instead of repairing them. The
// keys are written field by field in the request key's layout, since no
// encoder will produce them from a valid request.
func TestWireRejectsUnnormalized(t *testing.T) {
	key := func(vals, probs []float64) string {
		// strategy, SQL, join and selection sels, memory, chain states and rows
		b := wire.AppendStr(wire.AppendInt(nil, 3), "SELECT * FROM A")
		b = wire.AppendF64s(wire.AppendF64s(b, nil), nil)
		b = wire.AppendF64s(wire.AppendF64s(b, vals), probs)
		return string(wire.AppendUvarint(wire.AppendUvarint(b, 0), 0))
	}
	if _, err := serve.DecodeKey(key([]float64{100, 200}, []float64{0.5, 0.5})); err != nil {
		t.Fatalf("a normalized distribution in the same layout is refused: %v", err)
	}
	for name, d := range map[string][2][]float64{
		"unnormalized": {{100, 200}, {1, 1}},
		"descending":   {{200, 100}, {0.5, 0.5}},
		"duplicate":    {{100, 100}, {0.5, 0.5}},
		"zero prob":    {{100, 200}, {0, 1}},
		"mismatched":   {{100, 200}, {1}},
		"no support":   {nil, {1}},
	} {
		if _, err := serve.DecodeKey(key(d[0], d[1])); err == nil {
			t.Errorf("%s: DecodeKey accepted %v / %v", name, d[0], d[1])
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
