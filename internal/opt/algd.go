package opt

import (
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file implements Algorithm D (paper §3.6): LEC optimization when
// memory, the input sizes, and every predicate selectivity are all modeled
// by (independent) distributions. Per the paper's Figure 1, each lattice
// node carries exactly four distributions no matter how many parameters the
// query has: M (global), |B_j| (the partial result's size), |A_j| (the
// joined relation's size), and σ (the connecting predicates' selectivity).
// The result-size distribution |B_j ⋈ A_j| = |B_j|·|A_j|·σ is computed from
// the latter three and rebucketed to the configured budget (§3.6.3) before
// propagating upward.

// RowDist returns the distribution of the row count of ⋈_{i∈S} A_i.
// Like the point estimates, it is computed canonically per subset —
// independent of join order — which is what keeps the dynamic program
// consistent ("the size of the result is independent of the choice of j";
// we always split off the lowest relation index). Memoized.
func (ctx *Context) RowDist(s query.RelSet) *stats.Dist {
	if d := ctx.subsetRowDist.get(s); d != nil {
		ctx.Count.MemoHits++
		return d
	}
	var d *stats.Dist
	if s.Len() == 1 {
		d = ctx.baseRowDist(s.Single())
	} else {
		j := s.Members()[0]
		sj := s.Without(j)
		// The recursive call computes (and memoizes) the sub-subset's
		// distribution before the timed region opens, so nested bucketing
		// time is attributed exactly once.
		left := ctx.RowDist(sj)
		right := ctx.baseRowDist(j)
		var t0 time.Time
		if ctx.metrics != nil {
			t0 = time.Now()
		}
		sel := ctx.Q.StepSelectivityDist(sj, j, ctx.Opts.RebucketBudget)
		d = stats.ResultSizeDist(left, right, sel, ctx.Opts.RebucketBudget)
		if ctx.metrics != nil {
			ctx.bucketingNanos += time.Since(t0).Nanoseconds()
		}
		if ctx.obsWant {
			ctx.accumBucketErr(s, left, right, sel)
		}
	}
	ctx.subsetRowDist.put(s, d)
	return d
}

// baseRowDist is the filtered row-count distribution of relation i: the
// table's size distribution (if any) scaled by row density and local
// selectivity.
func (ctx *Context) baseRowDist(i int) *stats.Dist {
	tab, err := ctx.Cat.Table(ctx.Q.BaseTable(ctx.Q.Tables[i]))
	if err != nil || tab.SizeDist == nil {
		return stats.Point(ctx.baseRows[i])
	}
	scale := tab.RowsPerPage() * ctx.Q.LocalSelectivity(ctx.Q.Tables[i])
	return tab.SizeDist.Scale(scale)
}

// PagesDistOf returns the page-count distribution of the subset's result:
// the row distribution scaled by the (deterministic) pages-per-row of the
// concatenated tuples.
func (ctx *Context) PagesDistOf(s query.RelSet) *stats.Dist {
	if s.Len() == 1 {
		i := s.Single()
		if ctx.baseRows[i] <= 0 {
			return stats.Point(ctx.basePages[i])
		}
		return ctx.RowDist(s).Scale(ctx.basePages[i] / ctx.baseRows[i])
	}
	return ctx.RowDist(s).Scale(ctx.SubsetPPR(s))
}

// distCoster evaluates steps in expectation over memory AND the input-size
// distributions, using the linear-time routines of §3.6.1–3.6.2. It looks
// the operand distributions up by the relations each operand covers, so it
// prices bushy splits exactly as it prices left-deep extensions.
type distCoster struct {
	ctx *Context
	dm  *stats.Dist
	// mt is the session's precomputed memory-side tables for the fused
	// all-methods kernel (see batch.go); built once per compile.
	mt *cost.MemTable
}

func (dc distCoster) joinStep(m cost.Method, left, right plan.Node, _ query.RelSet, _ int) float64 {
	da := dc.ctx.PagesDistOf(left.Rels())
	db := dc.ctx.PagesDistOf(right.Rels())
	dc.ctx.Count.CostEvals += da.Len() + db.Len() + dc.dm.Len()
	return cost.ExpJoinCost3(m, da, db, dc.dm)
}

func (dc distCoster) sortStep(input plan.Node, _ int) float64 {
	dp := dc.ctx.PagesDistOf(input.Rels())
	dc.ctx.Count.CostEvals += dp.Len() * dc.dm.Len()
	return stats.ExpectProduct(dp, dc.dm, cost.SortCost)
}

// AlgorithmD runs the multi-parameter expected-cost dynamic program of
// paper §3.6. Uncertainty sources: dm for memory, each table's SizeDist
// (catalog), and each join predicate's SelDist (query). All are assumed
// independent, the paper's §3.6 default. The returned plan's joins are
// annotated with their propagated size distributions.
func AlgorithmD(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	return runConfig(cat, q, opts, Config{Coster: MultiParams{Mem: dm}})
}

// annotateSizeDists stores the per-subset size distributions on the plan's
// join nodes (Figure 1's per-node distributions, made visible in EXPLAIN).
func annotateSizeDists(ctx *Context, root plan.Node) {
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok {
			j.SizeDist = ctx.PagesDistOf(j.Rels())
		}
	})
}

// EvalAlgDObjective computes the Algorithm D objective — the sum of scan
// costs, expected join costs over (|B_j|, |A_j|, M), and the expected final
// sort cost — for an arbitrary finished left-deep plan, using the same
// canonical per-subset distributions as the dynamic program. Exhaustive
// enumeration with this objective is the ground truth for Algorithm D's DP.
func EvalAlgDObjective(ctx *Context, root plan.Node, dm *stats.Dist) float64 {
	total := 0.0
	plan.Walk(root, func(n plan.Node) {
		switch v := n.(type) {
		case *plan.Scan:
			total += v.AccessCost()
		case *plan.Join:
			da := ctx.PagesDistOf(v.Left.Rels())
			db := ctx.PagesDistOf(v.Right.Rels())
			total += cost.ExpJoinCost3(v.Method, da, db, dm)
		case *plan.Sort:
			if !plan.SatisfiesOrder(v.Input, v.Key_) {
				dp := ctx.PagesDistOf(v.Input.Rels())
				total += stats.ExpectProduct(dp, dm, cost.SortCost)
			}
		}
	})
	return total
}

// ExhaustiveAlgD minimizes the Algorithm D objective by brute force.
func ExhaustiveAlgD(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	ctx, err := NewContext(cat, q, opts)
	if err != nil {
		return nil, err
	}
	return Exhaustive(cat, q, opts, func(p plan.Node) float64 {
		return EvalAlgDObjective(ctx, p, dm)
	})
}
