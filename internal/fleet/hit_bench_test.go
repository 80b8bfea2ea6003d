package fleet

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

// benchCatalog is the peer-hit benchmarks' eight-table catalog.
func benchCatalog() *catalog.Catalog {
	return workload.RandomCatalog(rand.New(rand.NewSource(1)), workload.CatalogSpec{NumTables: 8})
}

// BenchmarkFleetPeerHit is one warm peer hit in a two-node Loopback fleet:
// the requester canonicalizes, flattens the lookup, and the owner rebinds
// it and answers from its plan cache.
func BenchmarkFleetPeerHit(b *testing.B) {
	names := []string{"a", "b"}
	lb := NewLoopback()
	nodes := make(map[string]*Node, len(names))
	for _, name := range names {
		n, err := New(serve.New(benchCatalog(), serve.Config{Workers: 2}), Config{Self: name, Peers: names, Transport: lb, HedgeDelay: -1})
		if err != nil {
			b.Fatal(err)
		}
		lb.Register(name, n)
		nodes[name] = n
	}
	benchPeerHit(b, nodes["a"], "b")
}

// BenchmarkFleetPeerHitHTTP is BenchmarkFleetPeerHit over HTTPTransport
// between two loopback listeners, so each hit also pays for the wire
// codec and an HTTP round trip.
func BenchmarkFleetPeerHitHTTP(b *testing.B) {
	nodes := newHTTPFleetOver(b, benchCatalog)
	var a *Node
	var owner string
	for name, n := range nodes {
		if a == nil {
			a = n
		} else {
			owner = name
		}
	}
	benchPeerHit(b, a, owner)
}

// benchPeerHit times warm reads at a of an 8-relation chain query that
// owner owns: after one cold read, each is a cached peer hit.
func benchPeerHit(b *testing.B, a *Node, owner string) {
	env := lec.Environment{Memory: stats.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})}
	// Draw chain queries until one is owned by owner, so a's reads are
	// peer hits.
	var req serve.Request
	cat := benchCatalog()
	for seed := int64(1); ; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: 8, Shape: workload.Chain, SelectionProb: 0.5})
		if err != nil {
			b.Fatal(err)
		}
		req = serve.Request{SQL: q.String(), Env: env, Strategy: lec.AlgorithmC}
		_, key, err := a.svc.Canonicalize(req)
		if err != nil {
			b.Fatal(err)
		}
		if a.view().ring.owner(key) == owner {
			break
		}
	}
	ctx := context.Background()
	if _, err := a.Optimize(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := a.Optimize(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.PeerHit || !rep.Peer.Cached {
			b.Fatal("warm read was not a cached peer hit")
		}
	}
}
