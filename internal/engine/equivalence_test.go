package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// smallInstance builds a catalog small enough to materialize and a chain
// query over it.
func smallInstance(t *testing.T, seed int64, n int, orderBy bool) (*catalog.Catalog, *query.SPJ, DB) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{
		NumTables: n, MinPages: 2, MaxPages: 20, RowsPerPage: 5,
	})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
		NumRels: n, Shape: workload.Chain, OrderBy: orderBy, SelectionProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	db, err := GenerateDB(rng, cat, 150)
	if err != nil {
		t.Fatal(err)
	}
	return cat, q, db
}

// projectionFor returns a canonical projection covering one column per
// table, so fingerprints are comparable across join orders (which permute
// the concatenated schemas).
func projectionFor(q *query.SPJ) []query.ColumnRef {
	proj := make([]query.ColumnRef, 0, len(q.Tables))
	for _, t := range q.Tables {
		proj = append(proj, query.ColumnRef{Table: t, Column: "id"})
	}
	return proj
}

// TestEveryEnumeratedPlanComputesTheSameResult executes every left-deep
// plan the optimizer's search space contains against real data and checks
// all produce the same multiset of rows — the semantic-equivalence
// assumption justifying plan choice by cost alone.
func TestEveryEnumeratedPlanComputesTheSameResult(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		cat, q, db := smallInstance(t, seed, 3, seed%2 == 0)
		plans, err := opt.EnumeratePlans(cat, q, opt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(plans) < 8 {
			t.Fatalf("suspiciously few plans: %d", len(plans))
		}
		proj := projectionFor(q)
		var ref []string
		for i, p := range plans {
			out, err := Execute(db, p)
			if err != nil {
				t.Fatalf("seed %d plan %d (%s): %v", seed, i, p.Key(), err)
			}
			fp, err := Fingerprint(out, proj)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = fp
				continue
			}
			if !reflect.DeepEqual(ref, fp) {
				t.Fatalf("seed %d: plan %s computes a different result than %s",
					seed, p.Key(), plans[0].Key())
			}
		}
	}
}

// TestOptimizerPlansComputeCorrectResultAndOrder runs each optimizer's
// chosen plan and verifies both the result fingerprint (against a reference
// nested-loop execution) and the ORDER BY property.
func TestOptimizerPlansComputeCorrectResultAndOrder(t *testing.T) {
	cat, q, db := smallInstance(t, 7, 3, true)
	dm := stats.MustNew([]float64{10, 2000}, []float64{0.3, 0.7})
	chain := stats.IdentityChain(dm.Support())

	plans := map[string]plan.Node{}
	if r, err := opt.SystemR(cat, q, opt.Options{}, 500); err == nil {
		plans["SystemR"] = r.Plan
	} else {
		t.Fatal(err)
	}
	if r, err := opt.AlgorithmA(context.Background(), cat, q, opt.Options{}, dm); err == nil {
		plans["A"] = r.Plan
	} else {
		t.Fatal(err)
	}
	if r, err := opt.AlgorithmB(context.Background(), cat, q, opt.Options{}, dm); err == nil {
		plans["B"] = r.Plan
	} else {
		t.Fatal(err)
	}
	if r, err := opt.AlgorithmC(cat, q, opt.Options{}, dm); err == nil {
		plans["C"] = r.Plan
	} else {
		t.Fatal(err)
	}
	if r, err := opt.AlgorithmCDynamic(cat, q, opt.Options{}, chain, dm); err == nil {
		plans["Cdyn"] = r.Plan
	} else {
		t.Fatal(err)
	}
	if r, err := opt.AlgorithmD(cat, q, opt.Options{}, dm); err == nil {
		plans["D"] = r.Plan
	} else {
		t.Fatal(err)
	}

	proj := projectionFor(q)
	var ref []string
	for name, p := range plans {
		out, err := Execute(db, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if q.OrderBy != nil {
			sorted, err := IsSortedBy(out, *q.OrderBy)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !sorted {
				t.Errorf("%s: output not ordered by %s\n%s", name, q.OrderBy, plan.Explain(p))
			}
		}
		fp, err := Fingerprint(out, proj)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = fp
		} else if !reflect.DeepEqual(ref, fp) {
			t.Errorf("%s: result differs from other optimizers", name)
		}
	}
}

// TestHistogramEstimatesAgainstTrueSelectivity grounds the catalog's
// histogram estimates against measured fractions on generated data.
func TestHistogramEstimatesAgainstTrueSelectivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Skewed data: Zipf-ish via squaring a uniform.
	n := 5000
	vals := make([]float64, n)
	for i := range vals {
		u := rng.Float64()
		vals[i] = float64(int(u * u * 100))
	}
	h, err := catalog.BuildHistogram(vals, 20, catalog.EquiDepth)
	if err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{5, 20, 50, 80} {
		trueCount := 0
		for _, v := range vals {
			if v <= threshold {
				trueCount++
			}
		}
		truth := float64(trueCount) / float64(n)
		est := h.SelectivityLE(threshold)
		if diff := est - truth; diff > 0.08 || diff < -0.08 {
			t.Errorf("threshold %v: estimate %v vs truth %v", threshold, est, truth)
		}
	}
}

// TestAggregationEquivalenceAcrossPlans: every SPJ plan × both aggregate
// methods computes the same groups with the same counts on real data.
func TestAggregationEquivalenceAcrossPlans(t *testing.T) {
	cat, q, db := smallInstance(t, 11, 3, false)
	gb := query.ColumnRef{Table: q.Tables[0], Column: "fk"}
	plans, err := opt.EnumeratePlans(cat, q, opt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	proj := []query.ColumnRef{gb, {Table: gb.Table, Column: "count"}}
	var ref []string
	for i, p := range plans {
		for _, m := range []plan.AggMethod{plan.HashAgg, plan.SortAgg} {
			agg := &plan.Aggregate{Input: p, GroupKey: gb, Method: m, Groups: 10, Pages: 1}
			out, err := Execute(db, agg)
			if err != nil {
				t.Fatalf("plan %d method %v: %v", i, m, err)
			}
			fp, err := Fingerprint(out, proj)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = fp
				continue
			}
			if !reflect.DeepEqual(ref, fp) {
				t.Fatalf("plan %d method %v computes different groups", i, m)
			}
			if m == plan.SortAgg {
				sorted, err := IsSortedBy(out, gb)
				if err != nil || !sorted {
					t.Fatalf("sort-agg output unsorted: %v", err)
				}
			}
		}
	}
}
