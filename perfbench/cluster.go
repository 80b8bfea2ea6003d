package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/lec"
)

// served is what the client got back for one read: a local service's
// Decision, or a peer's plan as text.
type served struct {
	dec  *lec.Decision
	wire *fleet.WireDecision
	err  error
}

// system is the program under test as the client sees it.
type system interface {
	read(ctx context.Context, o *op) served
	// write applies a catalog write state everywhere (fleet-hot only).
	write(ctx context.Context, state int) error
	// services lists every serve.Service in the system.
	services() []*serve.Service
	peerHits() int64
	// wire reports the bytes moved between nodes and the lookups made.
	wire() (bytes, lookups int64)
	close()
}

// serviceConfig is lecd's default service configuration with the
// workload's search options. The metrics registry lecd attaches is left
// off: the traced run reads engine phase timers from its own registry.
func serviceConfig(sp *spec) serve.Config {
	return serve.Config{
		Parallelism:    1,
		DefaultTimeout: 5 * time.Second,
		Options:        sp.opts,
	}
}

// single is one serve.Service driven in process.
type single struct {
	svc *serve.Service
}

func newSingle(sp *spec, seed int64) *single {
	return &single{svc: serve.New(buildCatalog(sp, seed, 0), serviceConfig(sp))}
}

func (s *single) read(ctx context.Context, o *op) served {
	resp, err := s.svc.Optimize(ctx, o.req)
	if err != nil {
		return served{err: err}
	}
	return served{dec: resp.Decision}
}

func (s *single) write(context.Context, int) error {
	return fmt.Errorf("workload has no writes")
}

func (s *single) services() []*serve.Service { return []*serve.Service{s.svc} }
func (s *single) peerHits() int64            { return 0 }
func (s *single) wire() (int64, int64)       { return 0, 0 }
func (s *single) close()                     {}

// meter accumulates call counts and durations from several goroutines.
type meter struct {
	n, ns atomic.Int64
}

func (m *meter) add(d time.Duration) {
	m.n.Add(1)
	m.ns.Add(int64(d))
}

// meanUS is the mean duration in microseconds, 0 with no calls.
func (m *meter) meanUS() float64 {
	if n := m.n.Load(); n > 0 {
		return float64(m.ns.Load()) / float64(n) / 1e3
	}
	return 0
}

// cluster is three fleet.Nodes in process, each behind its own loopback
// HTTP listener, talking over fleet.HTTPTransport. Nodes have fixed
// logical names that a custom dialer maps to the listeners, so ring
// ownership is the same on every run.
type cluster struct {
	nodes   []*fleet.Node
	servers []*http.Server
	serving sync.WaitGroup
	client  *http.Transport
	rec     atomic.Pointer[recorder] // nil outside the traced phase

	wireBytes atomic.Int64 // bytes read and written on dialed connections
	lookups   meter        // fleet.Transport.Lookup calls
	handles   meter        // lookup requests through fleet.Handler
	propagate meter        // fleet.Transport.Propagate calls
}

var nodeNames = [fleetNodes]string{"node-a", "node-b", "node-c"}

// spanHeader carries the requester's span to the peer's handler in traced
// runs, so the handler span can name its parent.
const spanHeader = "Bench-Span"

func newCluster(sp *spec, seed int64) (c *cluster, err error) {
	c = &cluster{}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	addrs := make(map[string]string, fleetNodes)
	lns := make([]net.Listener, fleetNodes)
	for i, name := range nodeNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return c, err
		}
		lns[i] = ln
		addrs[name] = ln.Addr().String()
	}
	var d net.Dialer
	c.client = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				return nil, err
			}
			real, ok := addrs[host]
			if !ok {
				return nil, fmt.Errorf("no node %q", host)
			}
			conn, err := d.DialContext(ctx, network, real)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, n: &c.wireBytes}, nil
		},
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}
	client := &http.Client{Transport: spanTripper{c.client, c}, Timeout: 5 * time.Second}
	tr := &timedTransport{inner: &fleet.HTTPTransport{Client: client}, c: c}
	for i, name := range nodeNames {
		svc := serve.New(buildCatalog(sp, seed, 0), serviceConfig(sp))
		node, err := fleet.New(svc, fleet.Config{
			Self:      name,
			Peers:     nodeNames[:],
			Transport: tr,
			Replicas:  1,
		})
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			return c, err
		}
		c.nodes = append(c.nodes, node)
		srv := &http.Server{Handler: &timedHandler{inner: fleet.Handler(node), c: c, node: name}}
		c.servers = append(c.servers, srv)
		c.serving.Add(1)
		go func(ln net.Listener) {
			defer c.serving.Done()
			srv.Serve(ln) // returns http.ErrServerClosed after close
		}(lns[i])
	}
	return c, nil
}

func (c *cluster) read(ctx context.Context, o *op) served {
	rep, err := c.nodes[o.entry].Optimize(ctx, o.req)
	if err != nil {
		return served{err: err}
	}
	if rep.Peer != nil {
		return served{wire: &rep.Peer.Decision}
	}
	return served{dec: rep.Local.Decision}
}

// write applies the catalog state on every node, each through
// Node.UpdateCatalog, which propagates the generation bump synchronously.
func (c *cluster) write(ctx context.Context, state int) error {
	for _, n := range c.nodes {
		err := n.UpdateCatalog(func(cat *catalog.Catalog) error {
			setState(cat, state)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (c *cluster) services() []*serve.Service {
	out := make([]*serve.Service, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Service()
	}
	return out
}

func (c *cluster) peerHits() int64 {
	var h int64
	for _, n := range c.nodes {
		h += n.Status().PeerHits
	}
	return h
}

func (c *cluster) wire() (int64, int64) { return c.wireBytes.Load(), c.lookups.n.Load() }

// status sums the fleet counters the benchmark reports.
func (c *cluster) status() (hedges, stale int64) {
	for _, n := range c.nodes {
		st := n.Status()
		hedges += st.Hedges
		stale += st.StaleRejected
	}
	return hedges, stale
}

// close stops every listener and waits for the serving goroutines.
func (c *cluster) close() {
	for _, srv := range c.servers {
		srv.Close()
	}
	c.serving.Wait()
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
}

// countingConn counts the bytes a dialed connection moves both ways.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// timedTransport decorates the fleet transport: it times Lookup and
// Propagate and, in traced runs, records a span for each.
type timedTransport struct {
	inner fleet.Transport
	c     *cluster
}

func (t *timedTransport) Lookup(ctx context.Context, peer string, req *fleet.LookupRequest) (*fleet.LookupReply, error) {
	ctx, end := t.c.rec.Load().start(ctx, "fleet.Transport.Lookup")
	t0 := time.Now()
	rep, err := t.inner.Lookup(ctx, peer, req)
	t.c.lookups.add(time.Since(t0))
	end()
	return rep, err
}

func (t *timedTransport) Propagate(ctx context.Context, peer string, gen uint64) (uint64, error) {
	ctx, end := t.c.rec.Load().start(ctx, "fleet.Transport.Propagate")
	t0 := time.Now()
	g, err := t.inner.Propagate(ctx, peer, gen)
	t.c.propagate.add(time.Since(t0))
	end()
	return g, err
}

func (t *timedTransport) Membership(ctx context.Context, peer string, msg *fleet.MembershipMsg) (*fleet.MembershipMsg, error) {
	return t.inner.Membership(ctx, peer, msg)
}

func (t *timedTransport) Handoff(ctx context.Context, peer string, req *fleet.HandoffRequest) (int, error) {
	return t.inner.Handoff(ctx, peer, req)
}

// spanTripper stamps the caller's span on outgoing peer requests in
// traced runs.
type spanTripper struct {
	base http.RoundTripper
	c    *cluster
}

func (s spanTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if sc, ok := spanFrom(r.Context()); ok && s.c.rec.Load() != nil {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", sc.req, sc.id))
	}
	return s.base.RoundTrip(r)
}

// timedHandler is middleware around fleet.Handler: it times lookup
// requests and, in traced runs, records a span whose parent is the
// requester's transport span.
type timedHandler struct {
	inner http.Handler
	c     *cluster
	node  string
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lookup := strings.HasSuffix(r.URL.Path, "/lookup")
	ctx := r.Context()
	if v := r.Header.Get(spanHeader); v != "" {
		if req, id, ok := strings.Cut(v, "/"); ok {
			rq, _ := strconv.ParseInt(req, 10, 64)
			pid, _ := strconv.ParseInt(id, 10, 64)
			ctx = withSpan(ctx, spanCtx{req: rq, id: pid})
		}
	}
	ctx, end := h.c.rec.Load().start(ctx, "fleet.Handler "+h.node+" "+r.URL.Path)
	t0 := time.Now()
	h.inner.ServeHTTP(w, r.WithContext(ctx))
	if lookup {
		h.c.handles.add(time.Since(t0))
	}
	end()
}
