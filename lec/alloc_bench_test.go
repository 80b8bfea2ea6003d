package lec_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/query"
	"repro/internal/workload"
	"repro/lec"
)

// coldRequest is one pre-generated facade request of the cold mix.
type coldRequest struct {
	q   *query.SPJ
	env lec.Environment
}

// coldMix generates a seeded mix of distinct 3–10-relation queries over all
// five join-graph shapes (cliques stop at 8 relations), a quarter of the
// relations filtered, 30% with ORDER BY, and lognormal memory distributions
// of 2–12 buckets.
func coldMix(tb testing.TB, seed int64, count int) (*lec.Optimizer, []coldRequest) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 10, IndexProb: 0.5})
	shapes := workload.Topologies()
	reqs := make([]coldRequest, 0, count)
	for len(reqs) < count {
		shape := shapes[len(reqs)%len(shapes)]
		maxN := 10
		if shape == workload.Clique {
			maxN = 8
		}
		n := 3 + rng.Intn(maxN-2)
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
			NumRels: n, Shape: shape, OrderBy: rng.Float64() < 0.3, SelectionProb: 0.25,
		})
		if err != nil {
			tb.Fatal(err)
		}
		mem, err := workload.LognormalMemDist(50+rng.Float64()*4950, 0.3+rng.Float64()*0.9, 2+rng.Intn(11))
		if err != nil {
			tb.Fatal(err)
		}
		reqs = append(reqs, coldRequest{q: q, env: lec.Environment{Memory: mem}})
	}
	return lec.New(cat), reqs
}

// BenchmarkFacadeCold runs AlgorithmC through the public facade over the
// cold mix: every call is a full engine session, so B/op and allocs/op
// track what one served plan costs the heap, session scratch included.
func BenchmarkFacadeCold(b *testing.B) {
	o, reqs := coldMix(b, 1, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		if _, err := o.OptimizeContext(ctx, r.q, r.env, lec.AlgorithmC); err != nil {
			b.Fatal(err)
		}
	}
}
