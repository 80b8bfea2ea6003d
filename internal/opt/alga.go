package opt

import (
	"context"
	"math"

	"repro/internal/catalog"
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
func AlgorithmA(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	return AlgorithmACtx(context.Background(), cat, q, opts, dm)
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
// The returned Result's Cost is that plan's *expected* cost under dm, so it
// is directly comparable with the LEC optimizers' results.
func LSCPlan(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist, useMode bool) (*Result, error) {
	rep := dm.Mean()
	if useMode {
		rep = dm.Mode()
	}
	res, err := SystemR(cat, q, opts, rep)
	if err != nil {
		return nil, err
	}
	return &Result{Plan: res.Plan, Cost: plan.ExpCost(res.Plan, dm), Count: res.Count}, nil
}
