// Package repro_test hosts the benchmark harness: one testing.B benchmark
// per experiment in DESIGN.md's index (each regenerates the corresponding
// table via internal/bench), plus micro-benchmarks for the optimizer's
// hot paths. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/eval"
	"repro/internal/opt"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runExperiment wraps one experiment runner as a benchmark body.
func runExperiment(b *testing.B, f func() (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty experiment table")
		}
	}
}

func BenchmarkE1_Example11(b *testing.B)   { runExperiment(b, bench.E1Example11) }
func BenchmarkE2_AlgCExact(b *testing.B)   { runExperiment(b, bench.E2AlgorithmCExact) }
func BenchmarkE3_TopCMerge(b *testing.B)   { runExperiment(b, bench.E3TopCMergeBound) }
func BenchmarkE4_OptCost(b *testing.B)     { runExperiment(b, bench.E4OptimizationCost) }
func BenchmarkE5_Dynamic(b *testing.B)     { runExperiment(b, bench.E5DynamicMemory) }
func BenchmarkE6_FastExp(b *testing.B)     { runExperiment(b, bench.E6FastExpectedCost) }
func BenchmarkE7_Rebucket(b *testing.B)    { runExperiment(b, bench.E7RebucketAccuracy) }
func BenchmarkE8_Bucketing(b *testing.B)   { runExperiment(b, bench.E8BucketingStrategies) }
func BenchmarkE9_Utility(b *testing.B)     { runExperiment(b, bench.E9UtilityRisk) }
func BenchmarkE10_Variance(b *testing.B)   { runExperiment(b, bench.E10VarianceSweep) }
func BenchmarkE11_Bushy(b *testing.B)      { runExperiment(b, bench.E11LeftDeepVsBushy) }
func BenchmarkE12_Strategies(b *testing.B) { runExperiment(b, bench.E12StrategyComparison) }
func BenchmarkE13_Randomized(b *testing.B) { runExperiment(b, bench.E13RandomizedSearch) }
func BenchmarkE14_Dependence(b *testing.B) { runExperiment(b, bench.E14DependentParameters) }
func BenchmarkE15_CoarseFine(b *testing.B) { runExperiment(b, bench.E15CoarseToFine) }
func BenchmarkE16_PageLevel(b *testing.B)  { runExperiment(b, bench.E16PageLevelValidation) }
func BenchmarkE17_Aggregate(b *testing.B)  { runExperiment(b, bench.E17Aggregation) }
func BenchmarkE18_EngineGrid(b *testing.B) { runExperiment(b, bench.E18EngineGrid) }
func BenchmarkE19_Anytime(b *testing.B)    { runExperiment(b, bench.E19AnytimeCurve) }
func BenchmarkE20_GraphEnum(b *testing.B)  { runExperiment(b, bench.E20GraphAwareEnumeration) }
func BenchmarkE22_Tiered(b *testing.B)     { runExperiment(b, bench.E22TieredPlanning) }
func BenchmarkF1_NodeDists(b *testing.B)   { runExperiment(b, bench.F1NodeDistributions) }

// --- micro-benchmarks -------------------------------------------------

// benchInstance builds a deterministic n-relation chain instance.
func benchInstance(b *testing.B, n int) (*catalog.Catalog, *query.SPJ) {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: n})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: n, Shape: workload.Chain, OrderBy: true})
	if err != nil {
		b.Fatal(err)
	}
	return cat, q
}

func benchMemDist(buckets int) *stats.Dist {
	d, err := workload.LognormalMemDist(800, 1.0, buckets)
	if err != nil {
		panic(err)
	}
	return d
}

func BenchmarkSystemR_n6(b *testing.B) {
	cat, q := benchInstance(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.SystemR(cat, q, opt.Options{}, 800); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmC_n6_b8(b *testing.B) {
	cat, q := benchInstance(b, 6)
	dm := benchMemDist(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.AlgorithmC(cat, q, opt.Options{}, dm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmC_n8_b8(b *testing.B) {
	cat, q := benchInstance(b, 8)
	dm := benchMemDist(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.AlgorithmC(cat, q, opt.Options{}, dm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmB_n6_b8_c4(b *testing.B) {
	cat, q := benchInstance(b, 6)
	dm := benchMemDist(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.AlgorithmB(context.Background(), cat, q, opt.Options{TopC: 4}, dm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithmD_n6(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 6, SizeSpread: 0.5})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: 6, Shape: workload.Chain, SelSpread: 0.8})
	if err != nil {
		b.Fatal(err)
	}
	dm := benchMemDist(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.AlgorithmD(cat, q, opt.Options{}, dm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBushyAlgorithmC_n6_b8(b *testing.B) {
	cat, q := benchInstance(b, 6)
	dm := benchMemDist(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.BushyAlgorithmC(cat, q, opt.Options{}, dm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastExpJoinCost_b64(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	mk := func(scale float64) *stats.Dist {
		vals := make([]float64, 64)
		ws := make([]float64, 64)
		for i := range vals {
			vals[i] = rng.Float64()*scale + 1
			ws[i] = rng.Float64() + 0.01
		}
		return stats.MustNew(vals, ws)
	}
	da, db, dm := mk(1e6), mk(1e6), mk(5e3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost.ExpJoinCost3(cost.SortMerge, da, db, dm)
	}
}

func BenchmarkSimulatedExecution(b *testing.B) {
	cat, q, dm := workload.Example11()
	res, err := opt.AlgorithmC(cat, q, opt.Options{}, dm)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	sampler := eval.StaticSampler{Dist: dm}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Evaluate(res.Plan, sampler, 100, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCacheLookup(b *testing.B) {
	cat, q, dm := workload.Example11()
	cache, err := opt.BuildPlanCache(cat, q, opt.Options{}, []*stats.Dist{
		stats.Point(100), stats.Point(700), stats.Point(2000), dm,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Lookup(dm)
	}
}
