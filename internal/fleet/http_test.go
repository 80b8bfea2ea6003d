package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
)

// newHTTPFleet boots two nodes behind real HTTP servers, peer-addressed by
// their listener addresses — the same wiring cmd/lecd uses.
func newHTTPFleet(t *testing.T) map[string]*Node {
	t.Helper()
	return newHTTPFleetOver(t, func() *catalog.Catalog {
		cat, _, _ := workload.Example11()
		return cat
	})
}

// newHTTPFleetOver is newHTTPFleet with each node's catalog built by
// newCatalog.
func newHTTPFleetOver(tb testing.TB, newCatalog func() *catalog.Catalog) map[string]*Node {
	tb.Helper()
	mux1, mux2 := http.NewServeMux(), http.NewServeMux()
	srv1 := httptest.NewServer(mux1)
	srv2 := httptest.NewServer(mux2)
	tb.Cleanup(srv1.Close)
	tb.Cleanup(srv2.Close)
	addr1 := srv1.Listener.Addr().String()
	addr2 := srv2.Listener.Addr().String()
	peers := []string{addr1, addr2}

	nodes := make(map[string]*Node, 2)
	for addr, mux := range map[string]*http.ServeMux{addr1: mux1, addr2: mux2} {
		n, err := New(serve.New(newCatalog(), serve.Config{Workers: 2}), Config{
			Self: addr, Peers: peers, Transport: &HTTPTransport{}, HedgeDelay: -1,
		})
		if err != nil {
			tb.Fatal(err)
		}
		mux.Handle("/fleet/", Handler(n))
		nodes[addr] = n
	}
	return nodes
}

// TestHTTPTransportPeerHit proves the wire path end to end: a request on
// the non-owner is answered by the owner over real HTTP, and a
// generation bump propagates back across the same wire.
func TestHTTPTransportPeerHit(t *testing.T) {
	nodes := newHTTPFleet(t)
	req := exampleRequest()

	var requester, ownerNode *Node
	for _, n := range nodes {
		_, key, err := n.svc.Canonicalize(req)
		if err != nil {
			t.Fatal(err)
		}
		if n.view().ring.owner(key) == n.cfg.Self {
			ownerNode = n
		} else {
			requester = n
		}
	}
	if requester == nil || ownerNode == nil {
		t.Fatal("could not split owner/requester")
	}

	rep, err := requester.Optimize(context.Background(), req)
	if err != nil {
		t.Fatalf("cross-node request failed: %v", err)
	}
	if !rep.PeerHit || rep.Peer == nil || rep.Peer.Decision.Plan == "" {
		t.Fatalf("cross-node request was not a peer hit: %+v", rep)
	}
	if got := ownerNode.svc.Stats().Optimizations; got != 1 {
		t.Errorf("owner ran %d optimizations, want 1", got)
	}
	if got := requester.svc.Stats().Optimizations; got != 0 {
		t.Errorf("requester ran %d optimizations, want 0", got)
	}

	requester.Invalidate()
	if got := ownerNode.svc.Generation(); got != 1 {
		t.Errorf("generation did not propagate over HTTP: owner at %d, want 1", got)
	}
}

// TestMixedVersionPeerFallsBack puts a requester in front of an owner that
// does not speak this protocol version: one that answers 404 (an older
// peer, which mounts other paths) and one that answers a JSON body. Each
// lookup must count one drop and fall back to a local run that returns
// exactly the plan a solo service computes.
func TestMixedVersionPeerFallsBack(t *testing.T) {
	for name, owner := range map[string]http.HandlerFunc{
		"404": http.NotFound,
		"JSON body": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"generation": 0, "node": "old", "resp": {"decision": {"plan": "bogus"}}}`))
		},
	} {
		t.Run(name, func(t *testing.T) {
			old := httptest.NewServer(owner)
			defer old.Close()
			mux := http.NewServeMux()
			srv := httptest.NewServer(mux)
			defer srv.Close()
			self, peer := srv.Listener.Addr().String(), old.Listener.Addr().String()
			cat, _, _ := workload.Example11()
			n, err := New(serve.New(cat, serve.Config{Workers: 2}), Config{
				Self: self, Peers: []string{self, peer}, Transport: &HTTPTransport{}, HedgeDelay: -1,
			})
			if err != nil {
				t.Fatal(err)
			}
			mux.Handle("/fleet/", Handler(n))

			// Ports are random, so search memory distributions for a
			// request the old peer owns.
			var req serve.Request
			for mean := 100.0; req.SQL == "" && mean < 4000; mean += 100 {
				r := exampleRequest()
				if r.Env.Memory, err = workload.LognormalMemDist(mean, 0.8, 4); err != nil {
					t.Fatal(err)
				}
				if _, o := ownerOf(t, n, r); o == peer {
					req = r
				}
			}
			if req.SQL == "" {
				t.Fatal("the old peer owns none of 39 requests")
			}
			rep, err := n.Optimize(context.Background(), req)
			if err != nil {
				t.Fatalf("request with a mixed-version owner failed: %v", err)
			}
			if !rep.FellBack || rep.Local == nil || rep.Peer != nil {
				t.Fatalf("want a local fallback, got %+v", rep)
			}
			if got := n.Status().Drops; got != 1 {
				t.Errorf("drops = %d, want 1", got)
			}
			soloCat, _, _ := workload.Example11()
			want, err := serve.New(soloCat, serve.Config{}).Optimize(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Local.Decision; got.Explain() != want.Decision.Explain() || got.ExpectedCost != want.Decision.ExpectedCost {
				t.Errorf("fallback plan differs from a solo service:\n  got  %v %s\n  want %v %s",
					got.ExpectedCost, got.Explain(), want.Decision.ExpectedCost, want.Decision.Explain())
			}
		})
	}
}

// TestHandlerRejectsMalformedBodies posts bodies that are not the path's
// message to every peer path: each gets a 400, and the node keeps serving.
func TestHandlerRejectsMalformedBodies(t *testing.T) {
	nodes := newHTTPFleet(t)
	var addr string
	for a := range nodes {
		addr = a
	}
	valid := marshal(&propagateMsg{Generation: 0})
	bodies := map[string][]byte{
		"empty":         nil,
		"JSON":          []byte(`{"generation": 1}`),
		"unknown tag":   {0xee, 1, 2, 3},
		"hostile count": append([]byte{tagMembership, 1}, binary.AppendUvarint(nil, 1<<62)...),
		"trailing":      append(append([]byte{}, valid...), 0),
	}
	for _, path := range []string{lookupPath, propagatePath, membershipPath, handoffPath} {
		for name, body := range bodies {
			resp, err := http.Post("http://"+addr+path, contentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with a %s body: status %d, want 400", path, name, resp.StatusCode)
			}
		}
	}
	rep, err := (&HTTPTransport{}).Propagate(context.Background(), addr, 0)
	if err != nil || rep != 0 {
		t.Errorf("node stopped answering after malformed bodies: %v, %v", rep, err)
	}
}

// TestFleetMetricsFreeWhenDisabled: a registry wired to serve but not to
// fleet carries no lec_fleet_* series; wiring fleet registers the family.
func TestFleetMetricsFreeWhenDisabled(t *testing.T) {
	reg := obs.NewRegistry()
	cat, _, _ := workload.Example11()
	svc := serve.New(cat, serve.Config{Workers: 2, Metrics: reg})
	if _, err := New(svc, Config{Self: "solo", Peers: []string{"solo"}}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, m := range []map[string]float64{snap.Counters, snap.Gauges} {
		for name := range m {
			if len(name) >= 10 && name[:10] == "lec_fleet_" {
				t.Errorf("fleet disabled but %s registered", name)
			}
		}
	}
	for name := range snap.Histograms {
		if len(name) >= 10 && name[:10] == "lec_fleet_" {
			t.Errorf("fleet disabled but %s registered", name)
		}
	}

	reg2 := obs.NewRegistry()
	cat2, _, _ := workload.Example11()
	svc2 := serve.New(cat2, serve.Config{Workers: 2, Metrics: reg2})
	n, err := New(svc2, Config{Self: "solo", Peers: []string{"solo"}, Metrics: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Optimize(context.Background(), exampleRequest()); err != nil {
		t.Fatal(err)
	}
	snap2 := reg2.Snapshot()
	for _, want := range []string{
		"lec_fleet_peer_hits_total", "lec_fleet_peer_misses_total",
		"lec_fleet_peer_hedges_total", "lec_fleet_peer_hedge_wins_total",
		"lec_fleet_peer_drops_total", "lec_fleet_stale_rejected_total",
		"lec_fleet_snapshot_saves_total", "lec_fleet_snapshot_loads_total",
	} {
		if _, ok := snap2.Counters[want]; !ok {
			t.Errorf("fleet enabled but %s not registered", want)
		}
	}
	if _, ok := snap2.Histograms["lec_fleet_propagate_seconds"]; !ok {
		t.Error("fleet enabled but lec_fleet_propagate_seconds not registered")
	}
	if got := snap2.Gauges["lec_fleet_peers"]; got != 1 {
		t.Errorf("lec_fleet_peers = %v, want 1", got)
	}
}
