package serve

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/workload"
	"repro/lec"
)

// hitRequest is an 8-relation chain with selections, as canonical SQL with
// explicit selectivities: the shape of a request a fleet peer forwards.
func hitRequest(tb testing.TB, seed int64) (Request, *Service) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 8})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: 8, Shape: workload.Chain, SelectionProb: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	req := Request{SQL: q.String(), Env: env(), Strategy: lec.AlgorithmC}
	for _, j := range q.Joins {
		req.JoinSels = append(req.JoinSels, j.Selectivity)
	}
	for _, s := range q.Selections {
		req.SelectionSels = append(req.SelectionSels, s.Selectivity)
	}
	return req, New(cat, Config{Workers: 2})
}

// BenchmarkServeHit is one warm plan-cache hit through Service.Optimize:
// everything a hit costs besides the engine run it avoids.
func BenchmarkServeHit(b *testing.B) {
	req, svc := hitRequest(b, 1)
	ctx := context.Background()
	if _, err := svc.Optimize(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Optimize(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.Cached {
			b.Fatal("warm request missed the plan cache")
		}
	}
}
