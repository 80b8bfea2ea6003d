package opt

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestPropLECPlanIsMinimal: Algorithm C's expected cost lower-bounds that
// of arbitrary plans from the same search space (sampled via randomized
// search with a single restart — fast, plausible plans).
func TestPropLECPlanIsMinimal(t *testing.T) {
	f := func(seedRaw uint8) bool {
		seed := int64(seedRaw)
		rng := rand.New(rand.NewSource(seed))
		cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 4})
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
			NumRels: 4, Shape: workload.Chain, OrderBy: seed%2 == 0,
		})
		if err != nil {
			return false
		}
		dm := randMemDist3(seed + 7000)
		lec, err := AlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			return false
		}
		for trial := int64(0); trial < 3; trial++ {
			rnd, err := RandomizedLEC(cat, q, Options{}, dm, RandomizedOpts{
				Restarts: 1, MaxMoves: 5, Seed: seed*13 + trial,
			})
			if err != nil {
				return false
			}
			if plan.ExpCost(rnd.Plan, dm) < lec.Cost*(1-1e-9) {
				t.Logf("seed %d: sampled plan beats LEC", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropFOSDMonotonicity: if memory distribution d2 first-order dominates
// d1 (more memory everywhere), the LEC cost under d2 is no higher — cost
// formulas are non-increasing in memory, so stochastic dominance transfers
// to expected costs of every fixed plan, hence to the minimum.
func TestPropFOSDMonotonicity(t *testing.T) {
	f := func(seedRaw uint8, shift uint8) bool {
		seed := int64(seedRaw)
		cat, q := quickInstance(seed)
		if q == nil {
			return false
		}
		d1 := randMemDist3(seed + 8000)
		// d2: d1 shifted upward — dominates d1.
		d2 := d1.Shift(float64(shift%200) + 1)
		if !d2.DominatesFOSD(d1) {
			return false
		}
		c1, err := AlgorithmC(cat, q, Options{}, d1)
		if err != nil {
			return false
		}
		c2, err := AlgorithmC(cat, q, Options{}, d2)
		if err != nil {
			return false
		}
		return c2.Cost <= c1.Cost*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// quickInstance builds a small instance for property tests; nil query on
// generation failure (treated as a property failure by callers).
func quickInstance(seed int64) (*catalog.Catalog, *query.SPJ) {
	rng := rand.New(rand.NewSource(seed))
	c := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 4})
	qq, err := workload.RandomQuery(rng, c, workload.QuerySpec{NumRels: 4, Shape: workload.Star})
	if err != nil {
		return nil, nil
	}
	return c, qq
}

// TestDominatesFOSD pins the helper itself.
func TestDominatesFOSD(t *testing.T) {
	low := stats.MustNew([]float64{100, 500}, []float64{0.5, 0.5})
	high := stats.MustNew([]float64{200, 700}, []float64{0.5, 0.5})
	if !high.DominatesFOSD(low) {
		t.Error("shifted-up distribution does not dominate")
	}
	if low.DominatesFOSD(high) {
		t.Error("dominated distribution claims dominance")
	}
	if !low.DominatesFOSD(low) {
		t.Error("distribution does not dominate itself")
	}
	// Crossing distributions: neither dominates.
	a := stats.MustNew([]float64{100, 900}, []float64{0.5, 0.5})
	b := stats.MustNew([]float64{400, 500}, []float64{0.5, 0.5})
	if a.DominatesFOSD(b) && b.DominatesFOSD(a) {
		t.Error("crossing distributions mutually dominate")
	}
}

// TestAlgorithmACtxCancel: a cancelled request context stops Algorithm A's
// bucket sweep after the first bucket, which fails soft to a valid plan
// flagged with the deadline reason instead of running the remaining
// buckets.
func TestAlgorithmACtxCancel(t *testing.T) {
	cat, q := randInstance(t, 3, 5, workload.Clique, true)
	dm := randMemDist3(9100)
	rc, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := AlgorithmA(rc, cat, q, Options{}, dm)
	if err != nil {
		t.Fatal(err)
	}
	checkValidPlan(t, res, q, "pre-cancelled A")
	if !res.Degraded || res.Reason != DegradeDeadline {
		t.Errorf("degraded=%v reason=%v, want deadline", res.Degraded, res.Reason)
	}
	if res.Count.Degradations != 1 {
		t.Errorf("%d buckets degraded, want the sweep to stop after the first", res.Count.Degradations)
	}
}
