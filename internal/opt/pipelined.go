package opt

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file implements the pipeline-aware search space of paper §4
// ("pipelined joins should be treated together as a single phase"): a
// join's phase index depends on the *methods* of the joins below it, so the
// per-subset principle of optimality breaks (the same subtlety that breaks
// general utility DPs) and no simple dynamic program computes the
// objective. The engine therefore searches this space by enumerating every
// finished left-deep plan and scoring it with the configured pricer at the
// plan's actual pipeline phases; the per-join-phase DP (AlgorithmCDynamic)
// is the practical approximation whose quality tests and experiment F-level
// checks measure.

// runPipelined enumerates left-deep plans and returns the one minimizing
// the pricer's objective under the pipeline-aware phase model.
func (o *Optimizer) runPipelined() (*Result, error) {
	ctx, pr := o.ctx, o.pricer
	var best plan.Node
	bestVal := math.Inf(1)
	err := ctx.enumerateLeftDeep(func(p plan.Node) {
		// The enumeration already checks stopped() while recursing; this
		// guard covers a budget that trips mid-evaluation of the previous
		// plan. best stays the anytime answer: every fully-scored plan is a
		// finished left-deep plan, so an interrupted run hands OptimizeCtx a
		// valid RungPartial candidate.
		if ctx.stopped() {
			return
		}
		v := evalPipelined(ctx, pr, p)
		if v < bestVal {
			best, bestVal = p, v
		}
	})
	if err != nil {
		return nil, err
	}
	if ctx.stopped() {
		if best != nil {
			return &Result{Plan: best, Cost: bestVal, Count: ctx.snapshotCount()}, nil
		}
		return nil, ctx.stopCause
	}
	if best == nil {
		return nil, fmt.Errorf("opt: pipelined search found no plan")
	}
	return &Result{Plan: best, Cost: bestVal, Count: ctx.snapshotCount()}, nil
}

// evalPipelined scores one finished plan: each join is priced at its
// pipeline phase, and a final sort at the last phase. The walk mirrors
// plan.ExpCostPipelined exactly, so with an expected-cost pricer the two
// agree bit for bit. Steps are priced through the Context's fail-soft
// wrappers, which guard non-finite costs and trip the budget meters.
func evalPipelined(ctx *Context, pr stepPricer, root plan.Node) float64 {
	phases := plan.PipelinePhases(root)
	total := 0.0
	joinIdx := 0
	plan.Walk(root, func(m plan.Node) {
		switch v := m.(type) {
		case *plan.Scan:
			total += v.AccessCost()
		case *plan.Join:
			total += ctx.priceJoin(pr, v.Method, v.Left, v.Right, v.Rels(), phases[joinIdx])
			joinIdx++
		case *plan.Sort:
			if !plan.SatisfiesOrder(v.Input, v.Key_) {
				last := 0
				if len(phases) > 0 {
					last = phases[len(phases)-1]
				}
				total += ctx.priceSort(pr, v.Input, last)
			}
		}
	})
	return total
}

// ExhaustivePipelined minimizes expected cost over the pipelined space:
// phaseDists[k] is the memory distribution of pipeline phase k. It is the
// reference answer for the pipeline-aware model — kept as an entry point
// because experiments compare it against the per-join-phase DP.
func ExhaustivePipelined(cat *catalog.Catalog, q *query.SPJ, opts Options, phaseDists []*stats.Dist) (*Result, error) {
	return runConfig(cat, q, opts, Config{Space: SpacePipelined, Coster: PhasedParams{Phases: phaseDists}})
}
