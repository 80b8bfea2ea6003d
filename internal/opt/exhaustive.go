package opt

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// Exhaustive enumerates every finished left-deep plan (all join orders ×
// all join-method assignments, under the same cross-product policy as the
// dynamic programs) and returns the one minimizing the supplied objective.
// It is the ground truth against which Theorems 2.1, 3.3 and 3.4 are
// verified; its cost is O(n!·|methods|^(n-1)), so it is only usable for
// small n.
func Exhaustive(cat *catalog.Catalog, q *query.SPJ, opts Options, objective func(plan.Node) float64) (*Result, error) {
	ctx, err := NewContext(cat, q, opts)
	if err != nil {
		return nil, err
	}
	var best plan.Node
	bestVal := math.Inf(1)
	err = ctx.enumerateLeftDeep(func(finished plan.Node) {
		v := objective(finished)
		if v < bestVal {
			best, bestVal = finished, v
		}
	})
	if err != nil {
		return nil, err
	}
	if best == nil {
		return nil, fmt.Errorf("opt: exhaustive found no plan")
	}
	return &Result{Plan: best, Cost: bestVal, Count: ctx.Count}, nil
}

// ExhaustiveLSC minimizes Φ at a fixed memory value.
func ExhaustiveLSC(cat *catalog.Catalog, q *query.SPJ, opts Options, mem float64) (*Result, error) {
	return Exhaustive(cat, q, opts, func(p plan.Node) float64 { return plan.Cost(p, mem) })
}

// ExhaustiveLEC minimizes E[Φ] under a static memory distribution — the
// true LEC left-deep plan by brute force.
func ExhaustiveLEC(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	return Exhaustive(cat, q, opts, func(p plan.Node) float64 { return plan.ExpCost(p, dm) })
}

// ExhaustiveLECPhased minimizes E[Φ] when each phase has its own memory
// distribution (the §3.5 dynamic-parameter model).
func ExhaustiveLECPhased(cat *catalog.Catalog, q *query.SPJ, opts Options, phases []*stats.Dist) (*Result, error) {
	return Exhaustive(cat, q, opts, func(p plan.Node) float64 { return plan.ExpCostPhased(p, phases) })
}

// EnumeratePlans returns every finished left-deep plan. Tests use it to
// validate the top-c lists of Algorithm B.
func EnumeratePlans(cat *catalog.Catalog, q *query.SPJ, opts Options) ([]plan.Node, error) {
	ctx, err := NewContext(cat, q, opts)
	if err != nil {
		return nil, err
	}
	var out []plan.Node
	err = ctx.enumerateLeftDeep(func(finished plan.Node) { out = append(out, finished) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// enumerateLeftDeep calls visit for every finished left-deep plan. Access
// paths are fixed to the cheapest per relation (scan cost is memory-
// independent and scan order cannot survive a join, so no cheaper finished
// plan is excluded), except in the single-relation case where every access
// path competes for the ORDER BY.
func (ctx *Context) enumerateLeftDeep(visit func(plan.Node)) error {
	n := ctx.Q.NumRels()
	if n == 0 {
		return fmt.Errorf("opt: empty query")
	}
	if n == 1 {
		for _, s := range ctx.Scans(0) {
			finished, _ := ctx.FinishPlan(s)
			visit(finished)
		}
		return nil
	}
	var rec func(cur plan.Node, used query.RelSet)
	rec = func(cur plan.Node, used query.RelSet) {
		if ctx.stopped() {
			return
		}
		if used.Len() == n {
			finished, _ := ctx.FinishPlan(cur)
			visit(finished)
			return
		}
		for j := 0; j < n; j++ {
			if used.Has(j) || !ctx.extensionAllowed(used, j) {
				continue
			}
			scan := ctx.BestScan(j)
			s := used.Add(j)
			for _, m := range ctx.Opts.Methods {
				rec(ctx.NewJoin(cur, scan, m, s, j), s)
			}
		}
	}
	for i := 0; i < n; i++ {
		rec(ctx.BestScan(i), query.NewRelSet(i))
	}
	return nil
}

// ExhaustiveBushy enumerates every bushy join tree (all binary tree shapes
// × method assignments) and minimizes the objective. It exists to quantify
// what the left-deep heuristic gives up (paper §2.2 heuristic 2 restricts
// System R to left-deep plans). Exponentially more expensive than the
// left-deep enumeration; keep n ≤ 6.
func ExhaustiveBushy(cat *catalog.Catalog, q *query.SPJ, opts Options, objective func(plan.Node) float64) (*Result, error) {
	ctx, err := NewContext(cat, q, opts)
	if err != nil {
		return nil, err
	}
	n := ctx.Q.NumRels()
	if n == 1 {
		return Exhaustive(cat, q, opts, objective)
	}
	// trees[s] lists every bushy tree computing subset s.
	trees := make(map[query.RelSet][]plan.Node, 1<<uint(n))
	for i := 0; i < n; i++ {
		trees[query.NewRelSet(i)] = []plan.Node{ctx.BestScan(i)}
	}
	for d := 2; d <= n; d++ {
		query.SubsetsOfSize(n, d, func(s query.RelSet) {
			var out []plan.Node
			// Enumerate unordered partitions s = l ∪ r by iterating proper
			// non-empty sub-bitmasks; each split appears once with l ⊃ the
			// lowest member to avoid mirrored duplicates, but both operand
			// orders are emitted because join methods are asymmetric.
			lowest := query.NewRelSet(s.Members()[0])
			for l := (s - 1) & s; l != 0; l = (l - 1) & s {
				if !l.Contains(lowest) {
					continue
				}
				r := s &^ l
				for _, lt := range trees[l] {
					for _, rt := range trees[r] {
						for _, m := range ctx.Opts.Methods {
							out = append(out, ctx.newBushyJoin(lt, rt, m, s), ctx.newBushyJoin(rt, lt, m, s))
						}
					}
				}
			}
			trees[s] = out
		})
	}
	var best plan.Node
	bestVal := math.Inf(1)
	for _, t := range trees[query.FullSet(n)] {
		finished, _ := ctx.FinishPlan(t)
		v := objective(finished)
		if v < bestVal {
			best, bestVal = finished, v
		}
	}
	if best == nil {
		return nil, fmt.Errorf("opt: bushy enumeration found no plan")
	}
	return &Result{Plan: best, Cost: bestVal, Count: ctx.Count}, nil
}

// newBushyJoin returns the (interned) join of two arbitrary subtrees.
func (ctx *Context) newBushyJoin(left, right plan.Node, m cost.Method, s query.RelSet) *plan.Join {
	jn, isNew := ctx.arena.Join(left, right, m)
	if isNew {
		jn.Preds = ctx.predsBetween(left.Rels(), right.Rels())
		ctx.Count.PlansBuilt++
		jn.Selectivity = ctx.selBetween(left.Rels(), right.Rels())
		jn.Pages = ctx.SubsetPages(s)
		jn.Rows = ctx.SubsetRows(s)
	}
	return jn
}

// predsBetween returns the join predicates with one side in a and the
// other in b, in a slice carved from the session arena.
func (ctx *Context) predsBetween(a, b query.RelSet) []query.JoinPred {
	between := func(sides [2]int) bool {
		li, ri := sides[0], sides[1]
		return li >= 0 && ri >= 0 && ((a.Has(li) && b.Has(ri)) || (a.Has(ri) && b.Has(li)))
	}
	cnt := 0
	for _, sides := range ctx.predSides {
		if between(sides) {
			cnt++
		}
	}
	out := ctx.arena.Preds(cnt)[:0]
	for pi, sides := range ctx.predSides {
		if between(sides) {
			out = append(out, ctx.Q.Joins[pi])
		}
	}
	return out
}

// selBetween returns the combined selectivity of predsBetween.
func (ctx *Context) selBetween(a, b query.RelSet) float64 {
	sel := 1.0
	for pi, sides := range ctx.predSides {
		li, ri := sides[0], sides[1]
		if li < 0 || ri < 0 {
			continue
		}
		if (a.Has(li) && b.Has(ri)) || (a.Has(ri) && b.Has(li)) {
			sel *= ctx.Q.Joins[pi].Selectivity
		}
	}
	return sel
}
