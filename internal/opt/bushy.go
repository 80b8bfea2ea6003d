package opt

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file lifts System R's heuristic 2 (paper §2.2): instead of requiring
// every join to add exactly one stored relation (left-deep plans), the
// bushy dynamic program considers every way to split a subset into two
// disjoint sub-results. The paper's concluding remarks (§4) name bushy
// trees as the main search-space restriction; this extension quantifies
// what the restriction gives up (experiment E11). The DP is generic in the
// same stepPricer as the left-deep engine, so every decomposable objective
// — fixed, expected, phased, certainty-equivalent, variance-penalized —
// searches bushy space too. A join forming a subset of size d is charged at
// phase d−2: the depth at which the left-deep walk would execute it, and an
// order-independent function of the subset, which keeps the DP exact.

// runBushy runs the all-splits dynamic program. Because the per-subset size
// estimates are order-independent, the principle of optimality holds for
// bushy trees exactly as for left-deep ones, and the DP returns the optimal
// bushy plan under the pricer's objective.
func (o *Optimizer) runBushy() (*Result, error) {
	ctx, pr := o.ctx, o.pricer
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	if n == 1 {
		// Same as the left-deep single-relation case.
		return finishSingle(ctx, pr)
	}
	o.dpt.reset(n)
	best := &o.dpt
	for i := 0; i < n; i++ {
		s := ctx.BestScan(i)
		best.put(query.NewRelSet(i), dpEntry{node: s, cost: s.AccessCost()})
	}
	w := newDPWalk(best, pr, n)
	for d := 2; d <= n && !ctx.stopped(); d++ {
		ctx.forEachLevel(d, func(s query.RelSet) { o.solveBushy(&w, s, d) })
	}
	if w.root.node == nil {
		if ctx.stopped() {
			return nil, ctx.stopCause
		}
		return nil, fmt.Errorf("opt: bushy DP found no plan")
	}
	return &Result{Plan: w.root.node, Cost: w.root.cost, Count: ctx.snapshotCount()}, nil
}

// solveBushy solves one lattice node of the all-splits DP: every canonical
// split of s priced in both operand orders, and — at the full set — the
// finished root candidates. The bushy DP records no trace events.
func (o *Optimizer) solveBushy(w *dpWalk, s query.RelSet, d int) {
	ctx := o.ctx
	if !ctx.visitSubset() {
		return
	}
	methods := ctx.Opts.Methods
	bestCost := math.Inf(1)
	var win winStep
	lowest := query.NewRelSet(s.Members()[0])
	for l := (s - 1) & s; l != 0 && !ctx.stopped(); l = (l - 1) & s {
		if !l.Contains(lowest) {
			continue // canonical split; operand orders handled below
		}
		r := s &^ l
		// Under the connected enumerator only connected halves were ever
		// solved; a split across a disconnected boundary finds an empty
		// entry and is skipped, which is the csg/cmp-pair restriction.
		le, re := w.best.get(l), w.best.get(r)
		if le.node == nil || re.node == nil {
			continue
		}
		if ctx.Opts.AvoidCrossProducts && !ctx.connected(l, r) && !crossUnavoidable(ctx, s) {
			continue
		}
		base := le.cost + re.cost
		// One batch per operand order: the batched kernel's values depend on
		// (left, right), and both orders are priced per method.
		var mbs [2]methodBatch
		for _, m := range methods {
			for oi, ord := range [2][2]dpEntry{{le, re}, {re, le}} {
				ctx.Count.JoinSteps++
				var stepCost float64
				if w.bp != nil {
					stepCost = ctx.priceJoinBatched(w.bp, &mbs[oi], m, ord[0].node, ord[1].node, s, d-2)
				} else {
					stepCost = ctx.priceJoin(w.pr, m, ord[0].node, ord[1].node, s, d-2)
				}
				total := base + stepCost
				if total < bestCost {
					bestCost = total
					win = winStep{left: ord[0].node, right: ord[1].node, m: m}
				} else {
					ctx.Count.Prunes++
				}
				if s == w.full {
					cand := ctx.newBushyJoin(ord[0].node, ord[1].node, m, s)
					finished, added := ctx.FinishPlan(cand)
					ft := total
					if added {
						ft += ctx.priceSort(w.pr, cand, d-2)
					}
					w.offerRoot(finished, ft)
				}
			}
		}
	}
	if win.right != nil {
		w.best.put(s, dpEntry{node: ctx.newBushyJoin(win.left, win.right, win.m, s), cost: bestCost})
	}
}

// crossUnavoidable reports whether every split of s crosses a predicate-free
// boundary (disconnected join graph inside s), in which case cross products
// must be allowed.
func crossUnavoidable(ctx *Context, s query.RelSet) bool {
	return !ctx.Q.Connected(s)
}

// BushyAlgorithmC returns the bushy LEC plan under a static memory
// distribution: Algorithm C with heuristic 2 removed.
func BushyAlgorithmC(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	return runConfig(cat, q, opts, Config{Space: SpaceBushy, Coster: StaticParams{Mem: dm}})
}
