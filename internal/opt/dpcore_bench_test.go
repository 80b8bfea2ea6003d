package opt

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// BenchmarkDPCore measures the unified dynamic-programming core on
// 10-relation queries across the three canonical join-graph topologies.
// ns/op and allocs/op here are the numbers CHANGES.md tracks across the
// arena/memo-reuse work: the DP over a 10-relation lattice enumerates
// 2^10 subsets and is the optimizer's hot path.
func BenchmarkDPCore(b *testing.B) {
	dm := stats.MustNew(
		[]float64{200, 700, 1500, 3000, 6000},
		[]float64{0.1, 0.2, 0.4, 0.2, 0.1})
	for _, shape := range []workload.Topology{workload.Chain, workload.Star, workload.Clique} {
		rng := rand.New(rand.NewSource(7))
		cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 10})
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: 10, Shape: shape, OrderBy: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("algC/%v", shape), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AlgorithmC(cat, q, Options{}, dm); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("systemR/%v", shape), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SystemR(cat, q, Options{}, dm.Mean()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Algorithm A re-runs the DP once per memory bucket; this is where
	// memo-table and arena reuse across bucket invocations pays off.
	rng := rand.New(rand.NewSource(7))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 10})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: 10, Shape: workload.Chain, OrderBy: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("algA/chain-buckets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AlgorithmA(context.Background(), cat, q, Options{}, dm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDPCoreLargeN measures the connected (csg) enumerator past the
// exhaustive engine's practical wall. A chain or cycle of n relations has
// only O(n²) connected subgraphs, so the graph-aware DP solves n = 30 in
// thousands of memo entries where the 2^30 lattice is out of reach; a star's
// connected family is still 2^(n-1), so the star rows stop at n = 20 and
// chart how the enumerator degrades toward exhaustive on dense-centered
// graphs. Exhaustive rows are included only where they finish in reasonable
// time (n = 15).
func BenchmarkDPCoreLargeN(b *testing.B) {
	dm := stats.MustNew(
		[]float64{200, 700, 1500, 3000, 6000},
		[]float64{0.1, 0.2, 0.4, 0.2, 0.1})
	type row struct {
		shape workload.Topology
		n     int
		enum  Enumeration
	}
	rows := []row{
		{workload.Chain, 15, EnumExhaustive},
		{workload.Chain, 15, EnumConnected},
		{workload.Chain, 20, EnumConnected},
		{workload.Chain, 30, EnumConnected},
		{workload.Cycle, 15, EnumConnected},
		{workload.Cycle, 20, EnumConnected},
		{workload.Cycle, 30, EnumConnected},
		{workload.Star, 15, EnumExhaustive},
		{workload.Star, 15, EnumConnected},
		{workload.Star, 20, EnumConnected},
	}
	for _, r := range rows {
		rng := rand.New(rand.NewSource(7))
		cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: r.n})
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: r.n, Shape: r.shape, OrderBy: true})
		if err != nil {
			b.Fatal(err)
		}
		opts := Options{Enumeration: r.enum}
		b.Run(fmt.Sprintf("algC/%v/n%d/%v", r.shape, r.n, r.enum), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AlgorithmC(cat, q, opts, dm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDPCoreSmallN times Algorithm C on chain, star and clique queries
// of n=6 and n=10 relations with an ORDER BY: n=6 is where per-run setup
// dominates, n=10 is where the 2^n lattice walk does.
func BenchmarkDPCoreSmallN(b *testing.B) {
	dm := stats.MustNew(
		[]float64{200, 700, 1500, 3000, 6000},
		[]float64{0.1, 0.2, 0.4, 0.2, 0.1})
	for _, shape := range []workload.Topology{workload.Chain, workload.Star, workload.Clique} {
		for _, n := range []int{6, 10} {
			rng := rand.New(rand.NewSource(7))
			cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: n})
			q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: n, Shape: shape, OrderBy: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("algC/%v/n%d", shape, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := AlgorithmC(cat, q, Options{}, dm); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
