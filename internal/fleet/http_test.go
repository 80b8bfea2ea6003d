package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
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

// TestFleetCountersMatchStatus: each event is counted once, so every
// lec_fleet_*_total series reads exactly its Status field, and the serve
// series that count the same event as a Stats field read that field. A
// two-replica loopback fleet is driven through a peer hit, a fallback
// after an injected drop, a hedge past a stalled lookup, and warm pushes
// that panic at the handoff site.
func TestFleetCountersMatchStatus(t *testing.T) {
	regs := map[string]*obs.Registry{}
	_, nodes := newTestFleetLB(t, []string{"a", "b"}, func(name string, cfg *Config, scfg *serve.Config) {
		regs[name] = obs.NewRegistry()
		cfg.Metrics, scfg.Metrics = regs[name], regs[name]
		cfg.Replicas = 2
		cfg.HedgeDelay = 100 * time.Millisecond
	})
	reqs := exampleRequestVariants()
	_, owner := ownerOf(t, nodes["a"], reqs[0])
	requester := nodes["a"]
	if owner == "a" {
		requester = nodes["b"]
	}
	inject := func(rules ...faultinject.Rule) {
		rules = append(rules, faultinject.Rule{Site: faultinject.FleetHandoff, Kind: faultinject.KindPanic, Every: 1})
		faultinject.Enable(faultinject.New(1, rules...))
	}
	t.Cleanup(faultinject.Disable)
	serveReq := func(req serve.Request) *Reply {
		t.Helper()
		rep, err := requester.Optimize(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// The hedged request is a second key of the same owner, so it is not
	// a cache hit at the requester after the fallback.
	var hedgeReq *serve.Request
	for i := range reqs[1:] {
		if _, o := ownerOf(t, requester, reqs[1+i]); o == owner {
			hedgeReq = &reqs[1+i]
			break
		}
	}
	if hedgeReq == nil {
		t.Fatal("the owner owns no second request variant")
	}

	inject()
	serveReq(reqs[0]) // a peer hit; the owner's warm push panics
	inject(faultinject.Rule{Site: faultinject.FleetPeerLookup, Kind: faultinject.KindDrop, After: 1})
	if rep := serveReq(reqs[0]); !rep.FellBack {
		t.Fatalf("dropped lookup did not fall back: %+v", rep)
	}
	inject(faultinject.Rule{Site: faultinject.FleetPeerLookup, Kind: faultinject.KindStall, After: 1, Sleep: 400 * time.Millisecond})
	before := peerStatus(t, requester, owner)
	if rep := serveReq(*hedgeReq); !rep.Hedged {
		t.Fatalf("stalled lookup was not hedged: %+v", rep)
	}
	// The stalled lookup lost the race but runs on; it ends by recording
	// an outcome against the owner.
	waitFor(t, 5*time.Second, "the stalled lookup to finish", func() bool {
		after := peerStatus(t, requester, owner)
		return after.LastOKAt != before.LastOKAt || after.LastErrorAt != before.LastErrorAt
	})

	var hits, handoffFailed int64
	for _, n := range nodes {
		hits += n.c.peerHits.Load()
		handoffFailed += n.c.handoffFailed.Load()
	}
	if hits == 0 || handoffFailed == 0 || requester.c.drops.Load() == 0 ||
		requester.c.peerMisses.Load() == 0 || requester.c.hedges.Load() == 0 {
		t.Fatalf("scenario missed an event: requester %+v, peer hits %d, failed handoffs %d",
			requester.Status(), hits, handoffFailed)
	}

	// Warm pushes finish in the background; wait for the two views to
	// agree, then report any series that never did.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var diffs []string
		for name, n := range nodes {
			diffs = append(diffs, counterDiffs(name, n, regs[name].Snapshot().Counters)...)
		}
		if len(diffs) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("series differ from Status/Stats:\n%s", strings.Join(diffs, "\n"))
		}
	}
}

// fleetSeries maps each lec_fleet_*_total series to the Status field it
// reads.
var fleetSeries = map[string]string{
	"lec_fleet_peer_hits_total":              "PeerHits",
	"lec_fleet_peer_misses_total":            "PeerMisses",
	"lec_fleet_peer_hedges_total":            "Hedges",
	"lec_fleet_peer_hedge_wins_total":        "HedgeWins",
	"lec_fleet_peer_drops_total":             "Drops",
	"lec_fleet_stale_rejected_total":         "StaleRejected",
	"lec_fleet_generation_adoptions_total":   "Adoptions",
	"lec_fleet_propagate_sent_total":         "PropagateSent",
	"lec_fleet_propagate_failed_total":       "PropagateFailed",
	"lec_fleet_health_trips_total":           "HealthTrips",
	"lec_fleet_health_probes_total":          "HealthProbes",
	"lec_fleet_health_skips_total":           "HealthSkips",
	"lec_fleet_failovers_total":              "Failovers",
	"lec_fleet_membership_adoptions_total":   "MembershipAdoptions",
	"lec_fleet_membership_failed_total":      "MembershipFailed",
	"lec_fleet_handoff_sent_total":           "HandoffSent",
	"lec_fleet_handoff_failed_total":         "HandoffFailed",
	"lec_fleet_handoff_entries_total":        "HandoffEntries",
	"lec_fleet_warm_fills_total":             "WarmFills",
	"lec_fleet_warm_hits_total":              "WarmHits",
	"lec_fleet_replica_pushes_total":         "ReplicaPushes",
	"lec_fleet_snapshot_saves_total":         "SnapshotSaves",
	"lec_fleet_snapshot_save_failures_total": "SnapshotSaveFailures",
	"lec_fleet_snapshot_loads_total":         "SnapshotLoads",
	"lec_fleet_snapshot_load_failures_total": "SnapshotLoadFailures",
	"lec_fleet_snapshot_replayed_total":      "SnapshotReplayed",
}

// counterDiffs lists the lec_fleet_*_total and per-event lec_serve_*
// series of one node that differ from its Status and Stats fields, any
// lec_fleet_*_total series with no Status field, and any int64 Status
// counter with no series.
func counterDiffs(node string, n *Node, got map[string]float64) []string {
	st, sst := n.Status(), n.Service().Stats()
	want := map[string]int64{
		"lec_serve_requests_total":       sst.Requests,
		"lec_serve_breaker_trips_total":  sst.BreakerTrips,
		"lec_serve_breaker_resets_total": sst.BreakerResets,
	}
	sv := reflect.ValueOf(st)
	covered := map[string]bool{}
	for name, field := range fleetSeries {
		want[name] = sv.FieldByName(field).Int()
		covered[field] = true
	}
	var diffs []string
	for i := 0; i < sv.NumField(); i++ {
		if f := sv.Type().Field(i); f.Type.Kind() == reflect.Int64 && !covered[f.Name] {
			diffs = append(diffs, fmt.Sprintf("%s: Status.%s has no lec_fleet_* series", node, f.Name))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok && strings.HasPrefix(name, "lec_fleet_") && strings.HasSuffix(name, "_total") {
			diffs = append(diffs, fmt.Sprintf("%s: %s has no Status field", node, name))
		}
	}
	for name, w := range want {
		if v, ok := got[name]; !ok || v != float64(w) {
			diffs = append(diffs, fmt.Sprintf("%s: %s = %v (registered %v), status %d", node, name, v, ok, w))
		}
	}
	return diffs
}
