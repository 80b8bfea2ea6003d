package opt

import (
	"context"
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// groupRowsPerPage is the density of (key, count) aggregate output rows.
const groupRowsPerPage = 256

// OptimizeWithAggregation handles GROUP BY blocks: the SPJ core is
// optimized with Algorithm B's order-diverse candidate pool, then each
// candidate is finished with the aggregate method of least expected cost —
// hash aggregation (cheap while the group table fits memory) versus sort
// aggregation (free when the join output already carries the group key's
// order, and itself order-producing, which serves an ORDER BY on the group
// key). This is the aggregate analogue of Example 1.1's sort-vs-hash trade
// and exercises the paper's "sizes of groups" parameter (§1).
// The candidate pool covers the SPJ core, generated twice: once bare (cheap
// unordered inputs for hash aggregation) and once targeting the group key's
// order (sort-merge-last joins, order-providing index scans, or explicit
// sorts — the inputs that make sort aggregation free). The union is
// deduplicated by plan key.
//
// The two pool generations run on separate engine sessions under rc (the
// bare core and the group-key-ordered core are different queries), so each
// gets its own Options.Budget meter; a degradation in either flags the
// aggregated Result.
func OptimizeWithAggregation(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	if q.GroupBy == nil {
		return nil, fmt.Errorf("opt: query has no GROUP BY; use AlgorithmC")
	}
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	cands, counters, deg, err := aggregateCandidates(rc, cat, q, opts, dm)
	if err != nil {
		return nil, err
	}
	groups, pages, err := groupEstimates(cat, q)
	if err != nil {
		return nil, err
	}
	best, bestCost := pickBestAggregate(q, cands, dm, groups, pages)
	if best == nil {
		return nil, fmt.Errorf("opt: aggregation produced no plan")
	}
	res := &Result{Plan: best, Cost: bestCost, Count: counters}
	deg.apply(res)
	return res, nil
}

// aggregateCandidates unions the two pools with degradation accumulated
// across both sessions.
func aggregateCandidates(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) ([]plan.Node, Counters, degradeInfo, error) {
	core := *q
	core.OrderBy = nil
	core.GroupBy = nil
	cands, counters, _, deg, err := algorithmBCandidates(rc, cat, &core, opts, dm)
	if err != nil {
		return nil, counters, deg, err
	}
	ordered := core
	ordered.OrderBy = q.GroupBy
	moreCands, moreCounters, _, moreDeg, err := algorithmBCandidates(rc, cat, &ordered, opts, dm)
	if err != nil {
		return nil, counters, deg, err
	}
	counters.Add(moreCounters)
	if moreDeg.degraded {
		deg.note(moreDeg.reason, moreDeg.rung)
	}
	seen := map[string]bool{}
	var out []plan.Node
	for _, c := range append(cands, moreCands...) {
		if key := c.Key(); !seen[key] {
			seen[key] = true
			out = append(out, c)
		}
	}
	return out, counters, deg, nil
}

// pickBestAggregate finishes every candidate with both aggregate methods and
// returns the least-expected-cost result.
func pickBestAggregate(q *query.SPJ, cands []plan.Node, dm *stats.Dist, groups, pages float64) (plan.Node, float64) {
	var best plan.Node
	bestCost := math.Inf(1)
	for _, cand := range cands {
		for _, m := range []plan.AggMethod{plan.HashAgg, plan.SortAgg} {
			finished := finishAggregate(q, cand, m, groups, pages)
			ec := plan.ExpCost(finished, dm)
			if ec < bestCost {
				best, bestCost = finished, ec
			}
		}
	}
	return best, bestCost
}

// finishAggregate wraps a join plan with the aggregate (and an ORDER BY
// sort over the aggregate output when still needed).
func finishAggregate(q *query.SPJ, cand plan.Node, m plan.AggMethod, groups, pages float64) plan.Node {
	agg := &plan.Aggregate{
		Input: cand, GroupKey: *q.GroupBy, Method: m,
		Groups: groups, Pages: pages,
	}
	var out plan.Node = agg
	if q.OrderBy != nil && !plan.SatisfiesOrder(out, *q.OrderBy) {
		out = &plan.Sort{Input: out, Key_: *q.OrderBy}
	}
	return out
}

// groupEstimates derives the number of groups (capped by the join result's
// cardinality) and the aggregate output's page count.
func groupEstimates(cat *catalog.Catalog, q *query.SPJ) (groups, pages float64, err error) {
	tab, err := cat.Table(q.BaseTable(q.GroupBy.Table))
	if err != nil {
		return 0, 0, err
	}
	col := tab.Column(q.GroupBy.Column)
	if col == nil {
		return 0, 0, fmt.Errorf("opt: unknown group column %s", q.GroupBy)
	}
	distinct := float64(col.Distinct)
	if distinct <= 0 {
		distinct = 10
	}
	core := *q
	core.OrderBy = nil
	core.GroupBy = nil
	ctx, err := NewContext(cat, &core, Options{})
	if err != nil {
		return 0, 0, err
	}
	resultRows := ctx.SubsetRows(query.FullSet(q.NumRels()))
	groups = math.Min(distinct, resultRows)
	if groups < 1 {
		groups = 1
	}
	pages = math.Ceil(groups / groupRowsPerPage)
	return groups, pages, nil
}

// ExhaustiveWithAggregation is the brute-force reference: every left-deep
// SPJ plan × both aggregate methods.
func ExhaustiveWithAggregation(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	if q.GroupBy == nil {
		return nil, fmt.Errorf("opt: query has no GROUP BY")
	}
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	core := *q
	core.OrderBy = nil
	core.GroupBy = nil
	plans, err := EnumeratePlans(cat, &core, opts)
	if err != nil {
		return nil, err
	}
	ordered := core
	ordered.OrderBy = q.GroupBy
	orderedPlans, err := EnumeratePlans(cat, &ordered, opts)
	if err != nil {
		return nil, err
	}
	plans = append(plans, orderedPlans...)
	groups, pages, err := groupEstimates(cat, q)
	if err != nil {
		return nil, err
	}
	best, bestCost := pickBestAggregate(q, plans, dm, groups, pages)
	if best == nil {
		return nil, fmt.Errorf("opt: no aggregate plan found")
	}
	return &Result{Plan: best, Cost: bestCost}, nil
}
