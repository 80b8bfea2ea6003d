package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
)

// This file is the engine's fail-soft layer. The paper's whole premise is
// that run-time conditions are uncertain; the same discipline is applied to
// the optimizer's own run time here:
//
//   - every search loop passes through cheap cancellation checkpoints that
//     honor a context.Context deadline and a work Budget metered by the
//     session's own instrumentation counters;
//   - the search is *anytime*: on interruption the engine degrades down a
//     ladder — best complete plan found so far, then greedy completion of
//     the deepest partial DP result, then greedy join ordering from scratch
//     at the parameter distribution's mean — so a valid executable plan is
//     always returned, flagged via Result.Degraded;
//   - cost-formula evaluations are guarded against NaN/±Inf poisoning and
//     instrumented as fault-injection sites, and the whole primary search
//     runs under a recover so a panicking coster degrades instead of
//     escaping.

// Budget bounds one optimization run's work in units of the engine's own
// Stats counters. The zero value means unlimited. Budgets are metered
// against the *session* totals, so the b bucket searches of Algorithms A/B
// share one budget rather than getting b fresh ones.
type Budget struct {
	// MaxCostEvals caps cost-formula evaluations (Stats.CostEvals).
	MaxCostEvals int
	// MaxSubsets caps lattice nodes visited (Stats.Subsets).
	MaxSubsets int
}

// Unlimited reports whether the budget imposes no bound.
func (b Budget) Unlimited() bool { return b.MaxCostEvals <= 0 && b.MaxSubsets <= 0 }

// DegradeReason says why a Result is degraded.
type DegradeReason int

// Degradation causes.
const (
	// DegradeNone: the search ran to completion.
	DegradeNone DegradeReason = iota
	// DegradeDeadline: the context was cancelled or its deadline expired.
	DegradeDeadline
	// DegradeBudget: the work budget was exhausted mid-search.
	DegradeBudget
	// DegradePanic: the search panicked and was recovered.
	DegradePanic
	// DegradeNonFinite: a coster produced NaN/±Inf costs; the affected
	// candidates were discarded, so the returned plan may be suboptimal.
	DegradeNonFinite
)

// String implements fmt.Stringer.
func (r DegradeReason) String() string {
	switch r {
	case DegradeNone:
		return "none"
	case DegradeDeadline:
		return "deadline"
	case DegradeBudget:
		return "budget"
	case DegradePanic:
		return "panic"
	case DegradeNonFinite:
		return "non-finite-cost"
	default:
		return fmt.Sprintf("DegradeReason(%d)", int(r))
	}
}

// Ladder rungs recorded in Result.Rung.
const (
	// RungFull: the configured search completed (Rung is empty).
	RungFull = ""
	// RungPartial: the best complete plan the interrupted search had
	// already finished (for the pipelined space this is a fully-scored
	// left-deep plan; for the DPs a root candidate).
	RungPartial = "partial-search"
	// RungGreedy: greedy join ordering at the distribution mean, possibly
	// seeded with the deepest partial DP result.
	RungGreedy = "greedy"
)

// Sentinel errors of the fail-soft layer.
var (
	// ErrBudgetExhausted reports an interrupted run for which not even the
	// greedy fallback could produce a plan (e.g. the query itself is
	// unplannable).
	ErrBudgetExhausted = errors.New("opt: work budget exhausted")
	// ErrNonFinite reports that every candidate's cost evaluated to
	// NaN/±Inf, so any returned plan would be garbage.
	ErrNonFinite = errors.New("opt: all candidate costs were non-finite")
)

// panicError wraps a recovered panic value so callers can distinguish a
// recovered search panic from an ordinary error.
type panicError struct{ val any }

func (p panicError) Error() string { return fmt.Sprintf("opt: recovered panic: %v", p.val) }

// RecoveredPanic returns the recovered panic value inside err, if any.
func RecoveredPanic(err error) (any, bool) {
	var pe panicError
	if errors.As(err, &pe) {
		return pe.val, true
	}
	return nil, false
}

// ctxPollInterval is how many cost evaluations pass between polls of the
// request context. Polling a context is an atomic load plus an interface
// call — cheap, but not free in the DP inner loop.
const ctxPollInterval = 64

// beginRun arms the session for one optimization run: the request context,
// a cleared stop cause, and the non-finite watermark that distinguishes
// this run's poisoned evaluations from earlier ones in the same session.
func (ctx *Context) beginRun(rc context.Context) {
	if rc == nil {
		rc = context.Background()
	}
	ctx.reqCtx = rc
	ctx.stopCause = nil
	ctx.pollCountdown = 1 // poll immediately: catch already-expired contexts
	ctx.nonFiniteMark = ctx.Count.NonFiniteCosts
	ctx.beginObs()
}

// interrupt records the first interruption cause; later causes are ignored.
// In a parallel run the cause is also published to the shared run state, so
// every worker observes the stop at its next checkpoint.
func (ctx *Context) interrupt(cause error) {
	if ctx.stopCause == nil {
		ctx.stopCause = cause
	}
	ctx.interrupted = true
	if p := ctx.par; p != nil {
		p.setCause(cause)
	}
}

// stopped reports whether the run has been interrupted — locally, or (in a
// parallel run) by any worker.
func (ctx *Context) stopped() bool {
	return ctx.stopCause != nil || (ctx.par != nil && ctx.par.stop.Load())
}

// sawNonFinite reports whether this run poisoned any cost evaluation.
func (ctx *Context) sawNonFinite() bool { return ctx.Count.NonFiniteCosts > ctx.nonFiniteMark }

// checkBudget trips the budget and context checkpoints. It is called after
// counters advance; the context is polled every ctxPollInterval calls.
func (ctx *Context) checkBudget() {
	if p := ctx.par; p != nil {
		ctx.checkBudgetPar(p)
		return
	}
	if ctx.stopCause != nil {
		return
	}
	b := ctx.Opts.Budget
	if b.MaxCostEvals > 0 && ctx.Count.CostEvals >= b.MaxCostEvals {
		ctx.interrupt(fmt.Errorf("%w: %d cost evaluations (budget %d)", ErrBudgetExhausted, ctx.Count.CostEvals, b.MaxCostEvals))
		return
	}
	if b.MaxSubsets > 0 && ctx.Count.Subsets >= b.MaxSubsets {
		ctx.interrupt(fmt.Errorf("%w: %d subsets (budget %d)", ErrBudgetExhausted, ctx.Count.Subsets, b.MaxSubsets))
		return
	}
	ctx.pollCountdown--
	if ctx.pollCountdown > 0 {
		return
	}
	ctx.pollCountdown = ctxPollInterval
	if ctx.reqCtx != nil {
		if err := ctx.reqCtx.Err(); err != nil {
			ctx.interrupt(fmt.Errorf("opt: search cancelled: %w", err))
		}
	}
}

// checkBudgetPar is the parallel-run budget checkpoint: the worker shell
// publishes its private counter deltas to the shared meters, then compares
// the run-wide totals against the budget. The request context is polled on
// the shell's own countdown, so polls stay amortized per worker.
func (ctx *Context) checkBudgetPar(p *parRun) {
	if ctx.stopCause != nil || p.stop.Load() {
		return
	}
	b := ctx.Opts.Budget
	if b.MaxCostEvals > 0 {
		if d := ctx.Count.CostEvals - ctx.parEvalMark; d > 0 {
			p.evals.Add(int64(d))
			ctx.parEvalMark = ctx.Count.CostEvals
		}
		if total := p.evalsBase + int(p.evals.Load()); total >= b.MaxCostEvals {
			ctx.interrupt(fmt.Errorf("%w: %d cost evaluations (budget %d)", ErrBudgetExhausted, total, b.MaxCostEvals))
			return
		}
	}
	if b.MaxSubsets > 0 {
		if d := ctx.Count.Subsets - ctx.parSubsetMark; d > 0 {
			p.subsets.Add(int64(d))
			ctx.parSubsetMark = ctx.Count.Subsets
		}
		if total := p.subsetsBase + int(p.subsets.Load()); total >= b.MaxSubsets {
			ctx.interrupt(fmt.Errorf("%w: %d subsets (budget %d)", ErrBudgetExhausted, total, b.MaxSubsets))
			return
		}
	}
	ctx.pollCountdown--
	if ctx.pollCountdown > 0 {
		return
	}
	ctx.pollCountdown = ctxPollInterval
	if ctx.reqCtx != nil {
		if err := ctx.reqCtx.Err(); err != nil {
			ctx.interrupt(fmt.Errorf("opt: search cancelled: %w", err))
		}
	}
}

// visitSubset is the per-lattice-node checkpoint: it counts the subset,
// trips the budget meters, and reports whether the search may continue.
func (ctx *Context) visitSubset() bool {
	if ctx.stopped() {
		return false
	}
	ctx.Count.Subsets++
	ctx.checkBudget()
	return !ctx.stopped()
}

// guardCost counts and neutralizes non-finite step costs: a NaN or ±Inf
// from a coster becomes +Inf, which loses every DP comparison instead of
// silently poisoning it (NaN compares false with everything, so a NaN
// candidate could otherwise block a subset from ever being solved).
func (ctx *Context) guardCost(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		ctx.Count.NonFiniteCosts++
		return math.Inf(1)
	}
	return v
}

// priceJoin prices one join step through the engine's pricer, wrapped with
// the fail-soft machinery: the fault-injection site, the non-finite guard,
// and the budget/cancellation checkpoint.
func (ctx *Context) priceJoin(pr stepPricer, m cost.Method, left, right plan.Node, s query.RelSet, phase int) float64 {
	var t0 time.Time
	if ctx.metrics != nil {
		t0 = time.Now()
	}
	var v float64
	switch faultinject.Check(faultinject.JoinCost) {
	case faultinject.KindNaN:
		v = math.NaN()
	case faultinject.KindInf:
		v = math.Inf(1)
	default:
		v = pr.joinStep(m, left, right, s, phase)
	}
	v = ctx.guardCost(v)
	if ctx.metrics != nil {
		ctx.costingNanos += time.Since(t0).Nanoseconds()
	}
	ctx.checkBudget()
	return v
}

// priceSort prices the final ORDER BY sort with the same guards as
// priceJoin.
func (ctx *Context) priceSort(pr stepPricer, input plan.Node, phase int) float64 {
	var t0 time.Time
	if ctx.metrics != nil {
		t0 = time.Now()
	}
	var v float64
	switch faultinject.Check(faultinject.SortCost) {
	case faultinject.KindNaN:
		v = math.NaN()
	case faultinject.KindInf:
		v = math.Inf(1)
	default:
		v = pr.sortStep(input, phase)
	}
	v = ctx.guardCost(v)
	if ctx.metrics != nil {
		ctx.costingNanos += time.Since(t0).Nanoseconds()
	}
	ctx.checkBudget()
	return v
}

// degradeReason maps the run's stop cause to the reported reason.
func (ctx *Context) degradeReason() DegradeReason {
	var pe panicError
	switch {
	case ctx.stopCause == nil:
		return DegradeNone
	case errors.As(ctx.stopCause, &pe):
		return DegradePanic
	case errors.Is(ctx.stopCause, ErrBudgetExhausted):
		return DegradeBudget
	default:
		return DegradeDeadline
	}
}

// OptimizeCtx runs the configured search under the request context and the
// session's Budget. It implements the anytime contract: when the search is
// interrupted (deadline, cancellation, budget exhaustion) or panics, the
// engine degrades down the ladder and still returns a valid finished plan,
// flagged with Degraded/Reason/Rung — an error is returned only for
// genuinely unplannable inputs.
//
// On the way out the run is flushed to Options.Metrics and, when tracing is
// enabled, the decision trace is snapshotted onto the Result — every return
// path of the inner optimization shares this epilogue.
func (o *Optimizer) OptimizeCtx(rc context.Context) (*Result, error) {
	res, err := o.optimizeCtxInner(rc)
	if res != nil {
		res.Enumeration = o.ctx.enumEff
	}
	o.stampTier(res)
	o.ctx.flushMetrics()
	o.ctx.attachTrace(res)
	return res, err
}

func (o *Optimizer) optimizeCtxInner(rc context.Context) (*Result, error) {
	o.tier = tierState{}
	o.adopt(rc)
	o.ctx.beginRun(rc)
	if o.ctx.Opts.Tier != TierDP {
		if res, served := o.tierGate(); served {
			return res, nil
		}
	}
	res, err := o.runPrimary()

	// Clean completion. A run that had to discard poisoned candidates is
	// flagged: the plan is valid but possibly suboptimal.
	if err == nil && !o.ctx.stopped() {
		if o.ctx.sawNonFinite() {
			o.markDegraded(res, DegradeNonFinite, RungFull)
		}
		return res, nil
	}

	if err != nil && !o.ctx.stopped() {
		// A genuine planning failure (empty query, no access path,
		// disconnected lattice...) — but if this run poisoned evaluations,
		// the failure is the coster's, not the query's.
		if o.ctx.sawNonFinite() {
			return nil, fmt.Errorf("%w (%v)", ErrNonFinite, err)
		}
		return nil, err
	}

	// Interrupted: descend the ladder.
	reason := o.ctx.degradeReason()
	if res != nil && res.Plan != nil {
		o.markDegraded(res, reason, RungPartial)
		return res, nil
	}
	fb, ferr := o.fallbackGuarded()
	if ferr != nil {
		return nil, fmt.Errorf("%w (fallback also failed: %v)", causeOrBudget(o.ctx.stopCause), ferr)
	}
	o.markDegraded(fb, reason, RungGreedy)
	return fb, nil
}

// causeOrBudget returns the stop cause, defaulting to ErrBudgetExhausted.
func causeOrBudget(cause error) error {
	if cause != nil {
		return cause
	}
	return ErrBudgetExhausted
}

// markDegraded flags a result and counts the degradation event.
func (o *Optimizer) markDegraded(res *Result, reason DegradeReason, rung string) {
	res.Degraded = true
	res.Reason = reason
	res.Rung = rung
	o.ctx.Count.Degradations++
	res.Count = o.ctx.snapshotCount()
}

// runPrimary executes the configured space's search under a recover, so a
// panicking coster (or a latent invariant failure in stats/plan code deep
// inside the DP) surfaces as an interruption instead of escaping the
// engine.
func (o *Optimizer) runPrimary() (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			o.ctx.Count.PanicsRecovered++
			pe := panicError{val: p}
			o.ctx.interrupt(pe)
			res, err = nil, pe
		}
	}()
	switch o.cfg.Space {
	case SpaceBushy:
		if w := o.workerCount(); w > 1 {
			return o.runBushyParallel(w)
		}
		return o.runBushy()
	case SpacePipelined:
		// The pipelined space's phase assignment depends on the methods below
		// each join, so it is searched by exhaustive enumeration and always
		// runs sequentially.
		return o.runPipelined()
	default:
		if w := o.workerCount(); w > 1 {
			return o.runLeftDeepParallel(w)
		}
		return o.runLeftDeep()
	}
}

// fallbackGuarded runs the terminal ladder rung under its own recover: the
// fallback prices steps directly with the classical cost formulas (it never
// re-enters the configured pricer, whose misbehavior may be why we are
// here), but it must still never let a panic escape.
func (o *Optimizer) fallbackGuarded() (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			o.ctx.Count.PanicsRecovered++
			res, err = nil, panicError{val: p}
		}
	}()
	return o.runGreedy()
}

// fallbackMem is the single representative memory value the greedy rung
// prices at: the mean of the coster's (initial) distribution — exactly the
// value the classical LSC optimizer would have assumed.
func (o *Optimizer) fallbackMem() float64 {
	switch c := o.cfg.Coster.(type) {
	case FixedParams:
		return c.Mem
	case StaticParams:
		return c.Mem.Mean()
	case PhasedParams:
		return c.Phases[0].Mean()
	case MarkovParams:
		return c.Initial.Mean()
	case MultiParams:
		return c.Mem.Mean()
	default:
		return 1
	}
}

// runGreedy is the guaranteed-fallback rung: greedy join ordering at the
// distribution mean, seeded with the deepest partial result the interrupted
// DP left behind (the "left-deep completion" of whatever was already paid
// for). Its work is O(n²·|methods|) — negligible next to any budget that
// could have been exhausted — and it bypasses the configured pricer and the
// fault-injection sites, so it succeeds even when the coster panics or
// returns garbage.
func (o *Optimizer) runGreedy() (*Result, error) {
	ctx := o.ctx
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	mem := o.fallbackMem()
	if math.IsNaN(mem) || math.IsInf(mem, 0) || mem <= 0 {
		mem = 1
	}
	if n == 1 {
		best := ctx.BestScan(0)
		finished, added := ctx.FinishPlan(best)
		total := best.AccessCost()
		if added {
			total += cost.SortCost(best.OutPages(), mem)
		}
		return &Result{Plan: finished, Cost: total, Count: ctx.snapshotCount()}, nil
	}
	// Greedy completion quality depends heavily on the seed: a single
	// cheapest-scan opening (or a salvage base picked by depth) can walk
	// into a corner of the join graph whose completion is many orders of
	// magnitude off. So the rung runs a small seed portfolio — every start
	// relation plus whatever the interrupted DP left behind — and keeps the
	// cheapest completed plan. Each completion is O(n²·|methods|), so the
	// whole portfolio stays O(n³·|methods|): negligible next to any budget
	// that could have been exhausted.
	seeds := make([]greedySeed, 0, n+2)
	for i := 0; i < n; i++ {
		s := ctx.BestScan(i)
		seeds = append(seeds, greedySeed{s, query.NewRelSet(i), s.AccessCost()})
	}
	seeds = append(seeds, o.salvageSeeds(mem)...)
	var node plan.Node
	total := math.Inf(1)
	var lastErr error
	for _, sd := range seeds {
		ext, sum, err := ctx.greedyExtend(sd.node, sd.set, mem)
		if err != nil {
			lastErr = err
			continue
		}
		if c := sd.cost + sum; c < total {
			node, total = ext, c
		}
	}
	if node == nil {
		return nil, lastErr
	}
	finished, added := ctx.FinishPlan(node)
	if added {
		total += cost.SortCost(node.OutPages(), mem)
	}
	return &Result{Plan: finished, Cost: total, Count: ctx.snapshotCount()}, nil
}

// greedySeed is one starting point for the greedy fallback: a partial plan,
// the relations it covers, and its cost re-priced at the fallback memory.
type greedySeed struct {
	node plan.Node
	set  query.RelSet
	cost float64
}

// salvageSeeds extracts up to two greedy seeds from whatever the interrupted
// run had already solved: the deepest subset (most paid-for work preserved)
// and the cheapest subset of size ≥ 2 (safest base). Both the single-best DP
// table and Algorithm B's top-c lists are inspected; entries of size 1 are
// skipped (the scratch portfolio already covers every single-relation
// opening).
func (o *Optimizer) salvageSeeds(mem float64) []greedySeed {
	var deepest, cheapest greedySeed
	deepestLen := 1
	deepest.cost = math.Inf(1)
	cheapest.cost = math.Inf(1)
	consider := func(s query.RelSet, node plan.Node) {
		if node == nil {
			return
		}
		l := s.Len()
		if l < 2 {
			return
		}
		c := plan.Cost(node, mem)
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return
		}
		if l > deepestLen || (l == deepestLen && c < deepest.cost) {
			deepest, deepestLen = greedySeed{node, s, c}, l
		}
		if c < cheapest.cost {
			cheapest = greedySeed{node, s, c}
		}
	}
	// Both the single-best DP table and the top-c lists are inspected via
	// their dense-or-sparse forms; a zero-value table (the run never built
	// one, e.g. the pipelined space) yields nothing.
	o.dpt.forEach(func(s query.RelSet, e dpEntry) { consider(s, e.node) })
	o.topt.forEach(func(s query.RelSet, l []topEntry) { consider(s, l[0].node) })
	var seeds []greedySeed
	if deepest.node != nil {
		seeds = append(seeds, deepest)
	}
	if cheapest.node != nil && cheapest.set != deepest.set {
		seeds = append(seeds, cheapest)
	}
	return seeds
}

// greedyExtend grows a partial left-deep plan to cover every relation,
// at each step joining in the (relation, method) pair of least specific
// cost at mem. The cross-product policy is respected; extensionAllowed
// guarantees at least one admissible extension whenever relations remain.
func (ctx *Context) greedyExtend(cur plan.Node, used query.RelSet, mem float64) (plan.Node, float64, error) {
	n := ctx.Q.NumRels()
	total := 0.0
	for used.Len() < n {
		bestJ, bestM, bestC := -1, cost.Method(0), math.Inf(1)
		for j := 0; j < n; j++ {
			if used.Has(j) || !ctx.extensionAllowed(used, j) {
				continue
			}
			scan := ctx.BestScan(j)
			for _, m := range ctx.Opts.Methods {
				c := scan.AccessCost() + cost.JoinCost(m, cur.OutPages(), scan.OutPages(), mem)
				if math.IsNaN(c) {
					continue
				}
				if c < bestC || bestJ < 0 {
					bestJ, bestM, bestC = j, m, c
				}
			}
		}
		if bestJ < 0 {
			return nil, 0, fmt.Errorf("opt: greedy fallback found no admissible extension of %v", used)
		}
		s := used.Add(bestJ)
		cur = ctx.NewJoin(cur, ctx.BestScan(bestJ), bestM, s, bestJ)
		used = s
		total += bestC
	}
	return cur, total, nil
}
