package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/workload"
	"repro/lec"
)

func newDemoDaemon(t *testing.T) *daemon {
	t.Helper()
	cat, q, dm := workload.Example11()
	reg := obs.NewRegistry()
	return &daemon{
		svc:          serve.New(cat, serve.Config{Metrics: reg}),
		reg:          reg,
		defaultQuery: q,
		defaultMem:   dm,
	}
}

func TestOptimizeEndpoint(t *testing.T) {
	d := newDemoDaemon(t)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	// Demo defaults: an empty body optimizes the Example 1.1 query.
	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out optimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "algorithm-c" || out.ExpectedCost <= 0 || out.Plan == "" {
		t.Errorf("response = %+v, want an algorithm-c plan with positive cost", out)
	}

	// The identical request is served from the plan cache.
	resp2, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 optimizeResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Cached {
		t.Error("second identical request not served from cache")
	}
	if out2.ExpectedCost != out.ExpectedCost {
		t.Errorf("cached cost %v != fresh cost %v", out2.ExpectedCost, out.ExpectedCost)
	}
}

func TestOptimizeEndpointExplicitFields(t *testing.T) {
	d := newDemoDaemon(t)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	body := `{"sql": "SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k",
	          "mem": "100:0.5,4000:0.5", "strategy": "lsc-mean"}`
	resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out optimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "lsc-mean" {
		t.Errorf("strategy = %q, want lsc-mean", out.Strategy)
	}
}

func TestOptimizeEndpointErrors(t *testing.T) {
	d := newDemoDaemon(t)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		want       int
	}{
		{"bad json", "{", http.StatusBadRequest},
		{"bad sql", `{"sql": "SELECT FROM WHERE"}`, http.StatusBadRequest},
		{"unknown table", `{"sql": "SELECT * FROM nope"}`, http.StatusBadRequest},
		{"bad mem", `{"mem": "banana"}`, http.StatusBadRequest},
		{"bad strategy", `{"strategy": "z"}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}

	resp, err := http.Get(ts.URL + "/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /optimize status = %d, want 405", resp.StatusCode)
	}
}

func TestCompareEndpoint(t *testing.T) {
	d := newDemoDaemon(t)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/compare", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out struct {
		Decisions []decisionJSON `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Decisions) != len(lec.Strategies()) {
		t.Errorf("decisions = %d, want %d", len(out.Decisions), len(lec.Strategies()))
	}
}

func TestHealthReadyStatsEndpoints(t *testing.T) {
	d := newDemoDaemon(t)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", path, resp.StatusCode)
		}
	}

	if _, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests < 1 || st.Optimizations < 1 {
		t.Errorf("stats = %+v, want at least one request and optimization", st)
	}
}

func TestDrainFlipsReadiness(t *testing.T) {
	d := newDemoDaemon(t)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	d.svc.BeginDrain()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	// Liveness stays up so the supervisor does not kill the drain.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200", resp.StatusCode)
	}
	// New optimizations fail fast with 503.
	post, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/optimize while draining = %d, want 503", post.StatusCode)
	}
}

func TestRunRequiresCatalog(t *testing.T) {
	if err := run(nil, &strings.Builder{}, &strings.Builder{}); err == nil {
		t.Fatal("run without -demo or -catalog did not fail")
	}
}

func TestClusterzStandalone(t *testing.T) {
	d := newDemoDaemon(t)
	ts := httptest.NewServer(d.handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/clusterz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if v, ok := out["fleet"]; !ok || v != false {
		t.Errorf("/clusterz without -peers = %v, want {\"fleet\": false}", out)
	}
	// Without a fleet node, the peer protocol is not mounted.
	pr, err := http.Post(ts.URL+"/fleet/v2/propagate", "application/octet-stream", strings.NewReader("\x03\x01"))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusNotFound {
		t.Errorf("/fleet/v2/propagate without -peers = %d, want 404", pr.StatusCode)
	}
}

// newFleetDaemon builds one peered demo daemon behind a late-bound
// httptest server, returning it once its handler (which needs the fleet
// node, which needs every peer address) is wired.
func newFleetDaemons(t *testing.T) map[string]*daemon {
	t.Helper()
	handlers := make([]http.Handler, 2)
	servers := make([]*httptest.Server, 2)
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handlers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(servers[i].Close)
	}
	peers := []string{
		servers[0].Listener.Addr().String(),
		servers[1].Listener.Addr().String(),
	}
	daemons := make(map[string]*daemon, 2)
	for i, addr := range peers {
		d := newDemoDaemon(t)
		node, err := fleet.New(d.svc, fleet.Config{
			Self: addr, Peers: peers, Transport: &fleet.HTTPTransport{},
			HedgeDelay: -1, Metrics: d.reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.fleet = node
		handlers[i] = d.handler()
		daemons[addr] = d
	}
	return daemons
}

// TestFleetDaemons drives two peered daemons through the public HTTP
// surface: the demo request is optimized exactly once fleet-wide, the
// non-owner's response is a peer hit, and /clusterz reports the routing.
func TestFleetDaemons(t *testing.T) {
	daemons := newFleetDaemons(t)

	var outs []optimizeResponse
	for addr := range daemons {
		resp, err := http.Post("http://"+addr+"/optimize", "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		var out optimizeResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || out.Plan == "" {
			t.Fatalf("fleet /optimize on %s: status %d, %+v", addr, resp.StatusCode, out)
		}
		outs = append(outs, out)
	}

	var totalOpt int64
	var peerHits int64
	for addr, d := range daemons {
		totalOpt += d.svc.Stats().Optimizations

		resp, err := http.Get("http://" + addr + "/clusterz")
		if err != nil {
			t.Fatal(err)
		}
		var st fleet.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Self != addr || len(st.Peers) != 2 {
			t.Errorf("/clusterz on %s: self=%q peers=%d", addr, st.Self, len(st.Peers))
		}
		peerHits += st.PeerHits
	}
	if totalOpt != 1 {
		t.Errorf("two peered daemons ran %d optimizations for one key, want 1", totalOpt)
	}
	if peerHits != 1 {
		t.Errorf("fleet recorded %d peer hits, want 1", peerHits)
	}
	var sawPeerHit bool
	for _, out := range outs {
		if out.PeerHit && out.PeerNode != "" {
			sawPeerHit = true
		}
	}
	if !sawPeerHit {
		t.Error("no response reported a cross-node peer hit")
	}
}
