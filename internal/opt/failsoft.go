package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/obs"
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
//     ladder — best complete plan found so far, then the tier's greedy join
//     ordering priced in expectation over the coster's distributions
//     (tier.go's greedyPlan) — so a valid executable plan is always
//     returned, flagged via Result.Degraded;
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
	// RungGreedy: the greedy planner's plan, priced in expectation over
	// the coster's phase distributions. Its Result.Cost is that expected
	// cost, also under a risk objective (not a certainty equivalent).
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
func (ctx *Context) interrupt(cause error) {
	if ctx.stopCause == nil {
		ctx.stopCause = cause
	}
	ctx.interrupted = true
}

// stopped reports whether the run has been interrupted.
func (ctx *Context) stopped() bool { return ctx.stopCause != nil }

// sawNonFinite reports whether this run poisoned any cost evaluation.
func (ctx *Context) sawNonFinite() bool { return ctx.Count.NonFiniteCosts > ctx.nonFiniteMark }

// checkBudget trips the budget and context checkpoints. It is called after
// counters advance; the context is polled every ctxPollInterval calls.
func (ctx *Context) checkBudget() {
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
// path of the inner optimization shares this epilogue. A MultiParams run's
// plan has its joins annotated with their size distributions (Algorithm D's
// per-node distributions, paper Figure 1); the greedy rung builds ordinary
// joins, so its plans annotate the same way.
func (o *Optimizer) OptimizeCtx(rc context.Context) (*Result, error) {
	res, err := o.optimizeCtxInner(rc)
	if res != nil {
		res.Enumeration = o.ctx.enumEff
	}
	o.stampTier(res)
	o.ctx.flushMetrics()
	o.ctx.attachTrace(res)
	if _, multi := o.cfg.Coster.(MultiParams); multi && res != nil {
		annotateSizeDists(o.ctx, res.Plan)
	}
	return res, err
}

func (o *Optimizer) optimizeCtxInner(rc context.Context) (*Result, error) {
	o.tier, o.cert, o.ladderLB = tierState{}, tierCert{}, 0
	o.adopt(rc)
	o.ctx.beginRun(rc)
	if o.ctx.Opts.Tier != TierDP {
		if res, served := o.tierGate(); served {
			return res, nil
		}
	}
	res, err := o.runPrimary()
	o.tierEndDP(res)

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

// traceSnapshot returns the session recorder's cumulative trace, or nil
// when tracing is disabled. Multi-bucket sessions use it to surface one
// trace spanning every bucket's search.
func (o *Optimizer) traceSnapshot() *obs.Trace {
	if o.ctx.trace == nil {
		return nil
	}
	t := o.ctx.trace.Snapshot()
	t.BucketErrBound = ascendingSum(o.ctx.bucketErr)
	return t
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
		return o.runBushy()
	case SpacePipelined:
		// The pipelined space's phase assignment depends on the methods below
		// each join, so it is searched by exhaustive enumeration.
		return o.runPipelined()
	default:
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

// runGreedy is the guaranteed-fallback rung: the tier's expected-cost
// greedy planner over the coster's phase distributions, without the tier's
// fault site. Its O(n²·|methods|·|support|) work is negligible next to any
// budget that could have been exhausted. After an interrupted left-deep DP
// the plan reports TierGap = greedy/LB_k − 1 against the walk's last
// complete level, so a degraded plan carries a checked bound on how far
// from the optimum it can be.
func (o *Optimizer) runGreedy() (*Result, error) {
	gp, err := o.greedyPlan(o.phaseDists())
	if err != nil {
		return nil, err
	}
	res := &Result{Plan: gp.node, Cost: gp.cost, Count: o.ctx.snapshotCount()}
	if o.ladderLB > 0 {
		res.TierGap = gp.cost/o.ladderLB - 1
	}
	return res, nil
}
