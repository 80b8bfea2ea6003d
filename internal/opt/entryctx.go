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

// This file provides the context-aware variants of the package's historical
// entry points. Each XCtx function is the fail-soft form of X: it threads a
// request context (deadline/cancellation) and the Options.Budget through the
// search, and on interruption degrades down the anytime ladder instead of
// failing — the Result's Degraded/Reason/Rung fields report what happened.
// The context-free entry points are now thin wrappers over these with
// context.Background(), which with an unlimited budget reproduces the
// pre-fail-soft behavior exactly.

// SystemRCtx is SystemR under a request context and the Options.Budget.
func SystemRCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, mem float64) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: FixedParams{Mem: mem}})
	if err != nil {
		return nil, err
	}
	return eng.OptimizeCtx(rc)
}

// AlgorithmCCtx is AlgorithmC under a request context and budget.
func AlgorithmCCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		return nil, err
	}
	return eng.OptimizeCtx(rc)
}

// AlgorithmCDynamicCtx is AlgorithmCDynamic under a request context and
// budget.
func AlgorithmCDynamicCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, chain *stats.Chain, initial *stats.Dist) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: MarkovParams{Chain: chain, Initial: initial}})
	if err != nil {
		return nil, err
	}
	return eng.OptimizeCtx(rc)
}

// AlgorithmDCtx is AlgorithmD under a request context and budget. The
// returned plan's joins are annotated with their size distributions exactly
// as AlgorithmD does (the greedy fallback builds ordinary left-deep joins,
// so its plans annotate the same way).
func AlgorithmDCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: MultiParams{Mem: dm}})
	if err != nil {
		return nil, err
	}
	res, err := eng.OptimizeCtx(rc)
	if err != nil {
		return nil, err
	}
	annotateSizeDists(eng.ctx, res.Plan)
	return res, nil
}

// LSCPlanCtx is LSCPlan under a request context and budget: the classical
// optimizer run at the distribution's representative value, with the chosen
// plan re-costed in expectation under dm.
func LSCPlanCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist, useMode bool) (*Result, error) {
	rep := dm.Mean()
	if useMode {
		rep = dm.Mode()
	}
	res, err := SystemRCtx(rc, cat, q, opts, rep)
	if err != nil {
		return nil, err
	}
	out := *res
	out.Cost = plan.ExpCost(res.Plan, dm)
	return &out, nil
}

// degradeInfo accumulates degradation across a multi-bucket run: the first
// degradation observed wins (later buckets degrade for the same cause).
type degradeInfo struct {
	degraded bool
	reason   DegradeReason
	rung     string
}

func (d *degradeInfo) note(reason DegradeReason, rung string) {
	if !d.degraded {
		d.degraded, d.reason, d.rung = true, reason, rung
	}
}

// apply flags an aggregated Result. It does not touch the Degradations
// counter — the per-bucket runs already counted their own events.
func (d degradeInfo) apply(res *Result) {
	if d.degraded {
		res.Degraded, res.Reason, res.Rung = true, d.reason, d.rung
	}
}

// AlgorithmACtx is AlgorithmA under a request context and budget. The b
// bucket searches share one engine session, so they share one budget; when
// the meter trips mid-session the candidate pool is whatever the completed
// buckets produced (plus the interrupted bucket's degraded plan), and the
// aggregated Result is flagged.
func AlgorithmACtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	cands, counters, tr, deg, err := algorithmACandidatesCtx(rc, cat, q, opts, dm)
	if err != nil {
		return nil, err
	}
	best, bestCost := pickLeastExpected(cands, dm)
	if best == nil {
		return nil, fmt.Errorf("opt: algorithm A produced no candidates")
	}
	res := &Result{Plan: best, Cost: bestCost, Count: counters}
	deg.apply(res)
	stampTrace(tr, res)
	return res, nil
}

// stampTrace attaches a multi-bucket session's trace snapshot to the
// aggregated Result, stamping the final pick's outcome.
func stampTrace(tr *obs.Trace, res *Result) {
	if tr == nil {
		return
	}
	tr.FinalCost = res.Cost
	tr.Rung = res.Rung
	if res.Degraded {
		tr.Reason = res.Reason.String()
	}
	res.Trace = tr
}

// algorithmACandidatesCtx is the context-aware candidate generator behind
// AlgorithmACtx. Budgets are metered against the session totals: once a
// bucket degrades for an exogenous cause (deadline, budget) the remaining
// buckets are skipped — they would only replay the greedy fallback.
func algorithmACandidatesCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) ([]plan.Node, Counters, *obs.Trace, degradeInfo, error) {
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

// traceSnapshot returns the session recorder's cumulative trace, or nil
// when tracing is disabled. Multi-bucket sessions use it to surface one
// trace spanning every bucket's search.
func (o *Optimizer) traceSnapshot() *obs.Trace {
	if o.ctx.trace == nil {
		return nil
	}
	t := o.ctx.trace.Snapshot()
	t.BucketErrBound = o.ctx.bucketErr.total()
	return t
}

// runTopCGuarded is runTopC under the same recover discipline as the
// single-plan searches: a panicking coster interrupts the session instead of
// escaping Algorithm B's bucket loop.
func (o *Optimizer) runTopCGuarded(c int) (roots []topEntry, err error) {
	defer func() {
		if p := recover(); p != nil {
			o.ctx.Count.PanicsRecovered++
			pe := panicError{val: p}
			o.ctx.interrupt(pe)
			roots, err = nil, pe
		}
	}()
	return o.runTopC(c)
}

// AlgorithmBCtx is AlgorithmB under a request context and budget, with the
// same shared-session budget semantics as AlgorithmACtx.
func AlgorithmBCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	cands, counters, tr, deg, err := algorithmBCandidatesCtx(rc, cat, q, opts, dm)
	if err != nil {
		return nil, err
	}
	best, bestCost := pickLeastExpected(cands, dm)
	if best == nil {
		return nil, fmt.Errorf("opt: algorithm B produced no candidates")
	}
	res := &Result{Plan: best, Cost: bestCost, Count: counters}
	deg.apply(res)
	stampTrace(tr, res)
	return res, nil
}

// algorithmBCandidatesCtx generates Algorithm B's candidate pool under a
// request context and budget. One beginRun arms the whole session: the stop
// cause is sticky across buckets, so an interruption in bucket i halts
// buckets i+1..b too. The anytime guarantee holds at the pool level — if the
// interrupted search produced no finished root at all, the greedy fallback
// contributes the guaranteed candidate.
func algorithmBCandidatesCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) ([]plan.Node, Counters, *obs.Trace, degradeInfo, error) {
	var deg degradeInfo
	// Same as algorithm A: the bucket searches never tier individually.
	opts.Tier = TierDP
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: FixedParams{Mem: dm.Value(0)}})
	if err != nil {
		return nil, Counters{}, nil, deg, err
	}
	eng.adopt(rc)
	eng.ctx.beginRun(rc)
	// The session never passes through OptimizeCtx, so the run is flushed
	// to the metrics bundle here, whatever path exits the bucket loop.
	defer eng.ctx.flushMetrics()
	c := eng.ctx.Opts.TopC
	seen := map[string]bool{}
	var cands []plan.Node
	for i := 0; i < dm.Len() && !eng.ctx.stopped(); i++ {
		if err := eng.SetCoster(FixedParams{Mem: dm.Value(i)}); err != nil {
			return nil, eng.Stats(), eng.traceSnapshot(), deg, err
		}
		roots, err := eng.runTopCGuarded(c)
		if err != nil {
			if eng.ctx.stopped() {
				break
			}
			return nil, eng.Stats(), eng.traceSnapshot(), deg, fmt.Errorf("opt: algorithm B at m=%v: %w", dm.Value(i), err)
		}
		for _, r := range roots {
			if key := r.node.Key(); !seen[key] {
				seen[key] = true
				cands = append(cands, r.node)
			}
		}
	}
	if eng.ctx.stopped() {
		deg.note(eng.ctx.degradeReason(), RungPartial)
		if len(cands) == 0 {
			fb, ferr := eng.fallbackGuarded()
			if ferr != nil {
				return nil, eng.Stats(), eng.traceSnapshot(), deg, fmt.Errorf("%w (fallback also failed: %v)", causeOrBudget(eng.ctx.stopCause), ferr)
			}
			deg.rung = RungGreedy
			cands = append(cands, fb.Plan)
		}
		eng.ctx.Count.Degradations++
	} else if eng.ctx.sawNonFinite() {
		if len(cands) == 0 {
			return nil, eng.Stats(), eng.traceSnapshot(), deg, ErrNonFinite
		}
		deg.note(DegradeNonFinite, RungFull)
		eng.ctx.Count.Degradations++
	}
	return cands, eng.Stats(), eng.traceSnapshot(), deg, nil
}

// OptimizeWithAggregationCtx is OptimizeWithAggregation under a request
// context and budget. The two candidate-pool generations run on separate
// engine sessions (the bare core and the group-key-ordered core are
// different queries), so each gets its own budget meter; a degradation in
// either flags the aggregated Result.
func OptimizeWithAggregationCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	if q.GroupBy == nil {
		return nil, fmt.Errorf("opt: query has no GROUP BY; use AlgorithmC")
	}
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	cands, counters, deg, err := aggregateCandidatesCtx(rc, cat, q, opts, dm)
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

// aggregateCandidatesCtx unions the two pools with degradation accumulated
// across both sessions.
func aggregateCandidatesCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) ([]plan.Node, Counters, degradeInfo, error) {
	core := *q
	core.OrderBy = nil
	core.GroupBy = nil
	cands, counters, _, deg, err := algorithmBCandidatesCtx(rc, cat, &core, opts, dm)
	if err != nil {
		return nil, counters, deg, err
	}
	ordered := core
	ordered.OrderBy = q.GroupBy
	moreCands, moreCounters, _, moreDeg, err := algorithmBCandidatesCtx(rc, cat, &ordered, opts, dm)
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
