package opt

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// aggInstance builds a join with a GROUP BY whose group table is large
// enough that the hash-vs-sort aggregation choice is memory-sensitive.
func aggInstance(t *testing.T, seed int64, orderBy bool) (*catalog.Catalog, *query.SPJ) {
	t.Helper()
	cat, q := randInstance(t, seed, 3, workload.Chain, false)
	gb := query.ColumnRef{Table: q.Tables[0], Column: "fk"}
	q.GroupBy = &gb
	if orderBy {
		ob := gb
		q.OrderBy = &ob
	}
	return cat, q
}

func TestAggregationMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cat, q := aggInstance(t, seed, seed%2 == 0)
		dm := randMemDist3(seed + 5100)
		got, err := OptimizeWithAggregation(context.Background(), cat, q, Options{TopC: 512}, dm)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := ExhaustiveWithAggregation(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(got.Cost, want.Cost) > costTol {
			t.Errorf("seed %d: aggregation opt %v != exhaustive %v\ngot:\n%s\nwant:\n%s",
				seed, got.Cost, want.Cost, plan.Explain(got.Plan), plan.Explain(want.Plan))
		}
	}
}

func TestAggregationPlanShape(t *testing.T) {
	cat, q := aggInstance(t, 3, true)
	dm := randMemDist3(42)
	res, err := OptimizeWithAggregation(context.Background(), cat, q, Options{}, dm)
	if err != nil {
		t.Fatal(err)
	}
	// The plan contains exactly one aggregate over the group key, and the
	// ORDER BY (same column) is satisfied.
	aggs := 0
	plan.Walk(res.Plan, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			aggs++
			if a.GroupKey != *q.GroupBy {
				t.Errorf("aggregate key %v, want %v", a.GroupKey, *q.GroupBy)
			}
			if a.Groups <= 0 || a.Pages <= 0 {
				t.Errorf("aggregate estimates %v groups / %v pages", a.Groups, a.Pages)
			}
		}
	})
	if aggs != 1 {
		t.Fatalf("%d aggregates in plan", aggs)
	}
	if !plan.SatisfiesOrder(res.Plan, *q.OrderBy) {
		t.Errorf("ORDER BY not satisfied:\n%s", plan.Explain(res.Plan))
	}
}

// TestAggregateMethodFollowsMemory: with abundant memory hash aggregation
// is free and wins; when the group table cannot fit, sort aggregation (or
// spilled hash) competes and an ORDER BY tips the balance to sort-agg.
func TestAggregateMethodFollowsMemory(t *testing.T) {
	// Catalog with a very large group count so the group table is big.
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "f", Rows: 10_000_000, Pages: 1_000_000,
		Columns: []*catalog.Column{
			{Name: "id", Distinct: 10_000_000},
			{Name: "g", Distinct: 8_000_000},
		},
	})
	gb := query.ColumnRef{Table: "f", Column: "g"}
	q := &query.SPJ{Tables: []string{"f"}, GroupBy: &gb, OrderBy: &gb}

	method := func(dm *stats.Dist) plan.AggMethod {
		res, err := OptimizeWithAggregation(context.Background(), cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		var m plan.AggMethod = -1
		plan.Walk(res.Plan, func(n plan.Node) {
			if a, ok := n.(*plan.Aggregate); ok {
				m = a.Method
			}
		})
		return m
	}
	// Group table ≈ 8e6/256 ≈ 31k pages. Even at tight memory, spilling the
	// hash aggregate (2·|input|) and sorting the *small* group table beats
	// sorting the whole million-page input — hash-agg wins on an unsorted
	// input regardless of memory (the groups are much smaller than the
	// input).
	if m := method(stats.Point(50)); m != plan.HashAgg {
		t.Errorf("unsorted input: %v, want hash-agg", m)
	}

	// With a clustered index on g, the input arrives in group order: sort
	// aggregation is entirely free (and delivers the ORDER BY), so it wins.
	cat2 := catalog.New()
	cat2.MustAdd(&catalog.Table{
		Name: "f", Rows: 10_000_000, Pages: 1_000_000,
		Columns: []*catalog.Column{
			{Name: "id", Distinct: 10_000_000},
			{Name: "g", Distinct: 8_000_000},
		},
		Indexes: []*catalog.Index{{Name: "f_g", Column: "g", Clustered: true, Height: 3}},
	})
	res, err := OptimizeWithAggregation(context.Background(), cat2, q, Options{}, stats.Point(50))
	if err != nil {
		t.Fatal(err)
	}
	var m plan.AggMethod = -1
	sortedInput := false
	plan.Walk(res.Plan, func(n plan.Node) {
		if a, ok := n.(*plan.Aggregate); ok {
			m = a.Method
			sortedInput = a.InputSorted()
		}
	})
	if m != plan.SortAgg || !sortedInput {
		t.Errorf("clustered-index input: method %v (sorted=%v), want free sort-agg\n%s",
			m, sortedInput, plan.Explain(res.Plan))
	}
}

// TestAggregationLECBeatsLSC hunts for an instance where the distribution-
// aware aggregate choice beats the point-estimate choice.
func TestAggregationLECBeatsLSC(t *testing.T) {
	found := false
	for seed := int64(0); seed < 40 && !found; seed++ {
		cat, q := aggInstance(t, seed, seed%2 == 0)
		dm := randMemDist3(seed + 5200)
		lec, err := OptimizeWithAggregation(context.Background(), cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		lscRes, err := OptimizeWithAggregation(context.Background(), cat, q, Options{}, stats.Point(dm.Mean()))
		if err != nil {
			t.Fatal(err)
		}
		lscUnderDist := plan.ExpCost(lscRes.Plan, dm)
		if lscUnderDist > lec.Cost*(1+1e-9) {
			found = true
			t.Logf("seed %d: LSC agg plan %v vs LEC %v", seed, lscUnderDist, lec.Cost)
		}
	}
	if !found {
		t.Error("no instance where distribution-aware aggregation helped")
	}
}

func TestAggregationValidation(t *testing.T) {
	cat, q := randInstance(t, 1, 3, workload.Chain, false)
	if _, err := OptimizeWithAggregation(context.Background(), cat, q, Options{}, stats.Point(100)); err == nil {
		t.Error("query without GROUP BY accepted")
	}
	gb := query.ColumnRef{Table: q.Tables[0], Column: "ghost"}
	q.GroupBy = &gb
	if _, err := OptimizeWithAggregation(context.Background(), cat, q, Options{}, stats.Point(100)); err == nil {
		t.Error("unknown group column accepted")
	}
	if _, err := ExhaustiveWithAggregation(cat, q, Options{}, stats.Point(100)); err == nil {
		t.Error("exhaustive accepted unknown group column")
	}
	q.GroupBy = nil
	if _, err := ExhaustiveWithAggregation(cat, q, Options{}, stats.Point(100)); err == nil {
		t.Error("exhaustive accepted missing GROUP BY")
	}
	// ORDER BY must match GROUP BY.
	gb2 := query.ColumnRef{Table: q.Tables[0], Column: "fk"}
	ob := query.ColumnRef{Table: q.Tables[0], Column: "id"}
	q.GroupBy, q.OrderBy = &gb2, &ob
	if err := q.Validate(cat); err == nil {
		t.Error("mismatched ORDER BY / GROUP BY accepted")
	}
}

func TestAggMethodString(t *testing.T) {
	if plan.HashAgg.String() != "hash-agg" || plan.SortAgg.String() != "sort-agg" {
		t.Error("AggMethod strings wrong")
	}
	if plan.AggMethod(9).String() == "" {
		t.Error("unknown AggMethod empty")
	}
}
