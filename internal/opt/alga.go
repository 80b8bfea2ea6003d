package opt

import (
	"context"
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// AlgorithmA implements paper §3.2: use a standard optimizer as a black
// box. "For each value m_i of the memory parameter, we run the optimizer
// under the assumption that m_i is the actual amount of memory available.
// This gives us b candidate plans. We then compute the expected cost of
// each candidate, and choose the one with least expected cost."
//
// The bucket representatives are dm's support points and the expected cost
// is taken under dm itself. The returned Result's Cost is the expected cost
// of the chosen plan. Algorithm A is an approximation: the true LEC plan
// may be optimal for none of the m_i and therefore never generated
// (see TestAlgorithmAIsNotExact).
//
// The b bucket searches share one engine session under rc and
// Options.Budget, so they share one budget; when the meter trips
// mid-session the candidate pool is whatever the completed buckets
// produced (plus the interrupted bucket's degraded plan), and the
// aggregated Result is flagged.
func AlgorithmA(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	cands, counters, tr, deg, err := algorithmACandidates(rc, cat, q, opts, dm)
	if err != nil {
		return nil, err
	}
	return pickPool("A", cands, counters, tr, deg, dm)
}

// pickPool is the costing phase of the candidate-pool algorithms: it picks
// the candidate of least expected cost under dm and flags the aggregated
// Result with the session's degradation and trace.
func pickPool(alg string, cands []plan.Node, counters Counters, tr *obs.Trace, deg degradeInfo, dm *stats.Dist) (*Result, error) {
	best, bestCost := pickLeastExpected(cands, dm)
	if best == nil {
		return nil, fmt.Errorf("opt: algorithm %s produced no candidates", alg)
	}
	res := &Result{Plan: best, Cost: bestCost, Count: counters}
	deg.apply(res)
	stampTrace(tr, res)
	return res, nil
}

// algorithmACandidates is Algorithm A's candidate generator. Budgets are
// metered against the session totals: once a bucket degrades for an
// exogenous cause (deadline, budget) the remaining buckets are skipped —
// they would only replay the greedy fallback.
func algorithmACandidates(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) ([]plan.Node, Counters, *obs.Trace, degradeInfo, error) {
	var deg degradeInfo
	// The b per-bucket searches build the candidate pool; a greedy tier
	// serving individual buckets would defeat the pool, so tiering applies
	// at the strategy level, not here.
	opts.Tier = TierDP
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: FixedParams{Mem: dm.Value(0)}})
	if err != nil {
		return nil, Counters{}, nil, deg, err
	}
	seen := map[string]bool{}
	var cands []plan.Node
	for i := 0; i < dm.Len(); i++ {
		if err := eng.SetCoster(FixedParams{Mem: dm.Value(i)}); err != nil {
			return nil, eng.Stats(), eng.traceSnapshot(), deg, err
		}
		res, err := eng.OptimizeCtx(rc)
		if err != nil {
			if len(cands) > 0 && eng.ctx.stopped() {
				// The ladder itself failed for this bucket, but earlier
				// buckets delivered: degrade rather than fail.
				deg.note(eng.ctx.degradeReason(), RungPartial)
				break
			}
			return nil, eng.Stats(), eng.traceSnapshot(), deg, fmt.Errorf("opt: algorithm A at m=%v: %w", dm.Value(i), err)
		}
		key := res.Plan.Key()
		if !seen[key] {
			seen[key] = true
			cands = append(cands, res.Plan)
		}
		if res.Degraded {
			deg.note(res.Reason, res.Rung)
			if res.Reason == DegradeBudget || res.Reason == DegradeDeadline {
				break
			}
		}
	}
	return cands, eng.Stats(), eng.traceSnapshot(), deg, nil
}

// pickLeastExpected evaluates E[Φ] for each candidate under dm and returns
// the winner. This is Algorithm A's costing phase; the paper notes its cost
// is "much smaller than the cost of candidate generation".
func pickLeastExpected(cands []plan.Node, dm *stats.Dist) (plan.Node, float64) {
	var best plan.Node
	bestCost := math.Inf(1)
	for _, c := range cands {
		ec := plan.ExpCost(c, dm)
		if ec < bestCost {
			best, bestCost = c, ec
		}
	}
	return best, bestCost
}

// LSCPlan returns the plan the traditional approach would choose: optimize
// once at a representative value of the distribution (its mean by default,
// its mode if useMode is set), per the paper's §1: "Current optimizers
// simply approximate each distribution by using the mean or modal value."
// The returned Result is SystemR's, degradation and trace included, with
// Cost replaced by the plan's *expected* cost under dm, so it is directly
// comparable with the LEC optimizers' results.
func LSCPlan(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist, useMode bool) (*Result, error) {
	rep := dm.Mean()
	if useMode {
		rep = dm.Mode()
	}
	res, err := SystemR(cat, q, opts, rep)
	if err != nil {
		return nil, err
	}
	out := *res
	out.Cost = plan.ExpCost(res.Plan, dm)
	return &out, nil
}
