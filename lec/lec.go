// Package lec is the public API of the least-expected-cost (LEC) query
// optimization library, a from-scratch reproduction of Chu, Halpern and
// Seshadri's LEC framework (PODS 1999/2002).
//
// The core idea: instead of optimizing a query for one assumed value of
// each run-time parameter (the classical least-specific-cost, LSC,
// approach), model the parameters — available buffer memory, relation
// sizes, predicate selectivities — as probability distributions and pick
// the plan minimizing *expected* cost. Because join cost formulas are
// discontinuous in memory, the two approaches can disagree dramatically;
// see the package example and examples/memory_variability.
//
// Basic use:
//
//	cat := ...                              // describe tables (catalog pkg)
//	opt := lec.New(cat)
//	env := lec.Environment{Memory: stats.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})}
//	d, err := opt.OptimizeSQL("SELECT * FROM a, b WHERE a.k = b.k ORDER BY a.k", env)
//	fmt.Println(d.Explain())
package lec

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// Strategy selects the optimization algorithm.
type Strategy int

// Strategies, from the classical baseline to the paper's algorithms.
const (
	// LSCMean is the traditional optimizer run at the distribution's mean.
	LSCMean Strategy = iota
	// LSCMode is the traditional optimizer run at the distribution's mode.
	LSCMode
	// AlgorithmA runs the black-box optimizer once per memory bucket and
	// keeps the candidate of least expected cost (paper §3.2).
	AlgorithmA
	// AlgorithmB keeps the top-c plans per bucket before the expected-cost
	// comparison (paper §3.3).
	AlgorithmB
	// AlgorithmC is the expected-cost dynamic program — the exact LEC plan
	// (paper §3.4; §3.5 when the environment has a Markov chain).
	AlgorithmC
	// AlgorithmD additionally models relation-size and selectivity
	// distributions (paper §3.6).
	AlgorithmD
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case LSCMean:
		return "lsc-mean"
	case LSCMode:
		return "lsc-mode"
	case AlgorithmA:
		return "algorithm-a"
	case AlgorithmB:
		return "algorithm-b"
	case AlgorithmC:
		return "algorithm-c"
	case AlgorithmD:
		return "algorithm-d"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists every strategy in presentation order.
func Strategies() []Strategy {
	return []Strategy{LSCMean, LSCMode, AlgorithmA, AlgorithmB, AlgorithmC, AlgorithmD}
}

// Environment describes the run-time parameter uncertainty.
type Environment struct {
	// Memory is the distribution of available buffer pages. Required.
	Memory *stats.Dist
	// Chain, when non-nil, makes memory dynamic: it evolves between join
	// phases starting from Memory (paper §3.5). Only AlgorithmC honors it.
	Chain *stats.Chain
}

func (e Environment) validate() error { return validateEnvironment(e) }

// Optimizer optimizes queries against one catalog.
//
// Concurrency: an Optimizer is safe for concurrent use. Every Optimize*,
// Compare* and OptimizeSearch* call builds its own search-engine session —
// memo tables, plan arena and budget meter are all per-call, the scratch
// behind them taken from a locked pool and returned once the plan is
// detached — so concurrent optimizations share nothing but the catalog and
// options, which these methods only read. The one rule callers must keep:
// do not mutate the catalog (or a query block passed to a call) while
// optimizations are in flight. A server refreshing statistics at run time
// needs external coordination — internal/serve provides exactly that (a
// read/write lock plus cache invalidation); see also cmd/lecd.
type Optimizer struct {
	cat  *catalog.Catalog
	opts opt.Options
}

// New builds an optimizer with default options.
func New(cat *catalog.Catalog) *Optimizer {
	return &Optimizer{cat: cat}
}

// NewWithOptions builds an optimizer with explicit search options.
func NewWithOptions(cat *catalog.Catalog, opts opt.Options) *Optimizer {
	return &Optimizer{cat: cat, opts: opts}
}

// Catalog returns the catalog the optimizer plans against.
func (o *Optimizer) Catalog() *catalog.Catalog { return o.cat }

// Decision is the outcome of one optimization.
type Decision struct {
	// Strategy that produced the plan.
	Strategy Strategy
	// Plan is the chosen physical plan.
	Plan plan.Node
	// ExpectedCost is E[Φ] of the plan under the environment.
	ExpectedCost float64
	// Risk summarizes the plan's cost distribution.
	Risk opt.RiskProfile
	// Query is the optimized block.
	Query *query.SPJ
	// Stats holds the search engine's instrumentation counters: subsets
	// enumerated, join steps costed, prunes, cost-formula evaluations, memo
	// and arena hits, and the fail-soft events (non-finite costs, recovered
	// panics, degradations).
	Stats opt.Stats
	// Degraded reports that the search was interrupted (deadline, budget,
	// recovered panic) or had to discard poisoned costs, and Plan came from
	// the anytime degradation ladder. The plan is always valid and
	// executable — Degraded says it may not be the optimum the full search
	// would have found.
	Degraded bool
	// DegradeReason says why the run degraded (DegradeNone otherwise).
	DegradeReason DegradeReason
	// DegradeRung names the ladder rung that produced a degraded plan
	// (RungPartial or RungGreedy; empty for a completed search).
	DegradeRung string
	// Enumeration is the lattice enumerator the search actually used:
	// the configured Options.Enumeration, unless the connected enumerator
	// fell back to exhaustive for a disconnected join graph.
	Enumeration Enumeration
	// Tier names the planning tier that answered when tiered planning was
	// enabled (Options.Tier ≠ TierDP): "greedy" for the served fast path,
	// "dp" after an escalation. Empty when tiering was off or the strategy
	// routes around the tier controller (the multi-bucket candidate pools).
	Tier string
	// TierReason says why that tier answered: "low-risk"/"forced" for a
	// served greedy plan, or the escalation trigger ("gap", "variance",
	// "level-set", "objective", "fault", "unplannable").
	TierReason string
	// TierGap is the greedy plan's relative expected-cost gap vs the
	// admissible lower bound (greedy/LB − 1), when computed.
	TierGap float64
	// Trace is the structured decision trace — per-subset winner/runner-up
	// decisions and every finished root candidate — populated only when
	// Options.Trace is set. Render it with Trace.Render() or serialize it
	// as JSON.
	Trace *obs.Trace
	env   Environment
}

// Explain renders the plan tree with its cost summary.
func (d *Decision) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %v\nexpected cost: %.0f page I/Os (std %.0f, p95 %.0f)\n",
		d.Strategy, d.ExpectedCost, d.Risk.StdDev, d.Risk.P95)
	if d.Tier != "" {
		fmt.Fprintf(&b, "tier: %s (%s", d.Tier, d.TierReason)
		if !math.IsNaN(d.TierGap) && !math.IsInf(d.TierGap, 0) && d.TierGap >= 0 {
			fmt.Fprintf(&b, "; greedy %.1f%% above the expected-cost lower bound", 100*d.TierGap)
		}
		b.WriteString(")\n")
	}
	if d.Degraded {
		rung := d.DegradeRung
		if rung == "" {
			rung = "full-search"
		}
		fmt.Fprintf(&b, "degraded: %v (plan from %s)\n", d.DegradeReason, rung)
	}
	b.WriteString(plan.Explain(d.Plan))
	return b.String()
}

// CostAt evaluates the plan's cost at one specific memory value.
func (d *Decision) CostAt(mem float64) float64 { return plan.Cost(d.Plan, mem) }

// Optimize plans a query block with the given strategy. It is
// OptimizeContext under a background context: nothing can interrupt the
// search, so only genuine input errors fail it.
func (o *Optimizer) Optimize(q *query.SPJ, env Environment, s Strategy) (*Decision, error) {
	return o.OptimizeContext(context.Background(), q, env, s)
}

// OptimizeContext plans a query block with the given strategy under a
// request context and the configured Options.Budget. The search is
// fail-soft: when the deadline expires, the budget runs out, or the cost
// model panics or produces non-finite values, a valid plan from the anytime
// degradation ladder is returned with Decision.Degraded set. Errors are
// reserved for invalid inputs (see the Err* sentinels) and for interrupted
// runs where not even the fallback could plan.
//
// The Decision's plan is detached from the search session (plan.Detach),
// and the session's scratch goes back to a bounded pool for the next call.
func (o *Optimizer) OptimizeContext(ctx context.Context, q *query.SPJ, env Environment, s Strategy) (d *Decision, err error) {
	rc, release := opt.Pooled(ctx)
	defer func() { release(err == nil) }()
	return o.optimizeContext(rc, q, env, s)
}

// optimizeContext is OptimizeContext without the session pooling: under an
// unpooled context every engine session allocates fresh scratch.
func (o *Optimizer) optimizeContext(ctx context.Context, q *query.SPJ, env Environment, s Strategy) (d *Decision, err error) {
	defer recoverToInternal(&err)
	if err := env.validate(); err != nil {
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("%w: nil query", ErrInvalidQuery)
	}
	if err := q.Validate(o.cat); err != nil {
		return nil, classifyErr(err)
	}
	if q.GroupBy != nil {
		return o.optimizeAggregate(ctx, q, env, s)
	}
	var res *opt.Result
	switch s {
	case LSCMean:
		res, err = opt.LSCPlanCtx(ctx, o.cat, q, o.opts, env.Memory, false)
	case LSCMode:
		res, err = opt.LSCPlanCtx(ctx, o.cat, q, o.opts, env.Memory, true)
	case AlgorithmA:
		res, err = opt.AlgorithmACtx(ctx, o.cat, q, o.opts, env.Memory)
	case AlgorithmB:
		res, err = opt.AlgorithmBCtx(ctx, o.cat, q, o.opts, env.Memory)
	case AlgorithmC:
		if env.Chain != nil {
			res, err = opt.AlgorithmCDynamicCtx(ctx, o.cat, q, o.opts, env.Chain, env.Memory)
		} else {
			res, err = opt.AlgorithmCCtx(ctx, o.cat, q, o.opts, env.Memory)
		}
	case AlgorithmD:
		res, err = opt.AlgorithmDCtx(ctx, o.cat, q, o.opts, env.Memory)
	default:
		return nil, fmt.Errorf("lec: unknown strategy %v", s)
	}
	if err != nil {
		return nil, classifyErr(err)
	}
	return o.newDecision(s, res, q, env), nil
}

// newDecision assembles the public Decision from an engine Result. The plan
// is detached from the session, so a retained Decision keeps O(n) nodes
// reachable rather than the whole search.
func (o *Optimizer) newDecision(s Strategy, res *opt.Result, q *query.SPJ, env Environment) *Decision {
	p := plan.Detach(res.Plan)
	return &Decision{
		Strategy:      s,
		Plan:          p,
		ExpectedCost:  o.expectedCost(p, q, env),
		Risk:          opt.NewRiskProfile(p, env.Memory),
		Query:         q,
		Stats:         res.Count,
		Degraded:      res.Degraded,
		DegradeReason: res.Reason,
		DegradeRung:   res.Rung,
		Enumeration:   res.Enumeration,
		Tier:          res.Tier,
		TierReason:    res.TierReason,
		TierGap:       res.TierGap,
		Trace:         res.Trace,
		env:           env,
	}
}

// optimizeAggregate routes GROUP BY blocks through the aggregation-aware
// optimizer. LEC strategies see the full memory distribution; the LSC
// strategies emulate the classical approach by planning at a point
// estimate (mean or mode) and are then evaluated under the true
// distribution, so Compare stays apples-to-apples.
func (o *Optimizer) optimizeAggregate(ctx context.Context, q *query.SPJ, env Environment, s Strategy) (*Decision, error) {
	dm := env.Memory
	switch s {
	case LSCMean:
		dm = stats.Point(env.Memory.Mean())
	case LSCMode:
		dm = stats.Point(env.Memory.Mode())
	}
	res, err := opt.OptimizeWithAggregationCtx(ctx, o.cat, q, o.opts, dm)
	if err != nil {
		return nil, classifyErr(err)
	}
	p := plan.Detach(res.Plan)
	return &Decision{
		Strategy:      s,
		Plan:          p,
		ExpectedCost:  plan.ExpCost(p, env.Memory),
		Risk:          opt.NewRiskProfile(p, env.Memory),
		Query:         q,
		Stats:         res.Count,
		Degraded:      res.Degraded,
		DegradeReason: res.Reason,
		DegradeRung:   res.Rung,
		Enumeration:   res.Enumeration,
		Tier:          res.Tier,
		TierReason:    res.TierReason,
		TierGap:       res.TierGap,
		env:           env,
	}, nil
}

// expectedCost normalizes every strategy's reported objective to the
// comparable E[Φ] of plan p under the environment (dynamic environments use
// the per-phase marginals).
func (o *Optimizer) expectedCost(p plan.Node, q *query.SPJ, env Environment) float64 {
	if env.Chain != nil {
		return plan.ExpCostPhased(p, opt.PhaseDistsFor(q, env.Chain, env.Memory))
	}
	return plan.ExpCost(p, env.Memory)
}

// OptimizeSQL parses, binds and optimizes a SQL string with AlgorithmC —
// the recommended default.
func (o *Optimizer) OptimizeSQL(sql string, env Environment) (*Decision, error) {
	return o.OptimizeSQLWith(sql, env, AlgorithmC)
}

// OptimizeSQLWith parses, binds and optimizes a SQL string with an explicit
// strategy.
func (o *Optimizer) OptimizeSQLWith(sql string, env Environment, s Strategy) (*Decision, error) {
	return o.OptimizeSQLWithContext(context.Background(), sql, env, s)
}

// OptimizeSQLContext is OptimizeSQL under a request context and budget.
func (o *Optimizer) OptimizeSQLContext(ctx context.Context, sql string, env Environment) (*Decision, error) {
	return o.OptimizeSQLWithContext(ctx, sql, env, AlgorithmC)
}

// OptimizeSQLWithContext parses, binds and optimizes a SQL string with an
// explicit strategy under a request context and budget. Parse and binding
// failures surface as ErrInvalidQuery or ErrUnknownRelation.
func (o *Optimizer) OptimizeSQLWithContext(ctx context.Context, sql string, env Environment, s Strategy) (d *Decision, err error) {
	defer recoverToInternal(&err)
	q, err := sqlparse.ParseAndBind(sql, o.cat)
	if err != nil {
		return nil, classifyErr(err)
	}
	return o.OptimizeContext(ctx, q, env, s)
}

// Search selects a Space × Objective combination for OptimizeSearch — the
// unified engine's axes, exposed directly. The zero value is the left-deep
// space under the expected-cost objective, i.e. AlgorithmC.
type Search struct {
	// Space is the plan-shape family searched: SpaceLeftDeep (default),
	// SpaceBushy, or SpacePipelined.
	Space Space
	// Objective is the risk posture: nil or ExpectedCost{} for risk
	// neutrality, ExponentialUtility for certainty-equivalent optimization,
	// VariancePenalized for mean-variance trade-offs.
	Objective Objective
}

// Re-exported engine types, so callers configure a Search without importing
// internal packages.
type (
	// Space is the plan-shape family (left-deep / bushy / pipelined).
	Space = opt.Space
	// Objective is the optimization objective.
	Objective = opt.Objective
	// ExpectedCost is the risk-neutral objective (the LEC default).
	ExpectedCost = opt.ExpectedCost
	// ExponentialUtility minimizes certainty equivalents under u(x)=e^{γx}.
	ExponentialUtility = opt.ExponentialUtility
	// VariancePenalized minimizes E[cost] + λ·Var[cost] per phase.
	VariancePenalized = opt.VariancePenalized
	// Options are the engine's search options (join methods, cross-product
	// policy, top-c width, work Budget, ...).
	Options = opt.Options
	// Budget bounds one optimization run's work; see Options.Budget. The
	// zero value is unlimited.
	Budget = opt.Budget
	// DegradeReason says why a Decision is degraded.
	DegradeReason = opt.DegradeReason
	// Enumeration selects the subset-lattice enumerator (see
	// Options.Enumeration): EnumExhaustive walks every subset, EnumConnected
	// only connected subgraphs of the join graph.
	Enumeration = opt.Enumeration
	// Trace is the structured decision trace (see Decision.Trace and
	// Options.Trace).
	Trace = obs.Trace
	// TraceEvent is one per-subset DP decision inside a Trace.
	TraceEvent = obs.TraceEvent
	// OptMetrics is the engine's registry-backed metric bundle (see
	// Options.Metrics and obs.NewOptMetrics).
	OptMetrics = obs.OptMetrics
	// Tier selects the tiered-planning mode (see Options.Tier): TierDP,
	// TierAuto, or TierGreedy.
	Tier = opt.Tier
	// TierRisk sets TierAuto's escalation thresholds (see Options.TierRisk).
	TierRisk = opt.TierRisk
)

// Engine spaces.
const (
	SpaceLeftDeep  = opt.SpaceLeftDeep
	SpaceBushy     = opt.SpaceBushy
	SpacePipelined = opt.SpacePipelined
)

// Degradation causes (see Decision.DegradeReason).
const (
	DegradeNone      = opt.DegradeNone
	DegradeDeadline  = opt.DegradeDeadline
	DegradeBudget    = opt.DegradeBudget
	DegradePanic     = opt.DegradePanic
	DegradeNonFinite = opt.DegradeNonFinite
)

// Degradation-ladder rungs (see Decision.DegradeRung).
const (
	RungPartial = opt.RungPartial
	RungGreedy  = opt.RungGreedy
)

// Lattice enumerators (see Options.Enumeration).
const (
	EnumExhaustive = opt.EnumExhaustive
	EnumConnected  = opt.EnumConnected
)

// Tiered-planning modes (see Options.Tier).
const (
	TierDP     = opt.TierDP
	TierAuto   = opt.TierAuto
	TierGreedy = opt.TierGreedy
)

// ParseEnumeration parses an enumerator name ("exhaustive", "connected";
// "" means exhaustive) for flag and config surfaces.
func ParseEnumeration(s string) (Enumeration, error) { return opt.ParseEnumeration(s) }

// ParseTier parses a tier name ("dp", "auto", "greedy"; "" means dp) for
// flag and config surfaces.
func ParseTier(s string) (Tier, error) { return opt.ParseTier(s) }

// OptimizeSearch plans a query block with an explicit Space × Objective
// configuration of the unified engine. The environment supplies the coster:
// a Markov chain yields per-phase distributions (paper §3.5), a bare memory
// distribution the static model (§3.4). This is the route to combinations
// the named strategies cannot express — bushy × utility, pipelined ×
// variance-penalized, dynamic × bushy.
func (o *Optimizer) OptimizeSearch(q *query.SPJ, env Environment, search Search) (*Decision, error) {
	return o.OptimizeSearchContext(context.Background(), q, env, search)
}

// OptimizeSearchContext is OptimizeSearch under a request context and
// budget, with the same fail-soft contract and session pooling as
// OptimizeContext.
func (o *Optimizer) OptimizeSearchContext(ctx context.Context, q *query.SPJ, env Environment, search Search) (d *Decision, err error) {
	ctx, release := opt.Pooled(ctx)
	defer func() { release(err == nil) }()
	defer recoverToInternal(&err)
	if err := env.validate(); err != nil {
		return nil, err
	}
	if q == nil {
		return nil, fmt.Errorf("%w: nil query", ErrInvalidQuery)
	}
	if err := q.Validate(o.cat); err != nil {
		return nil, classifyErr(err)
	}
	var coster opt.Coster
	if env.Chain != nil {
		coster = opt.MarkovParams{Chain: env.Chain, Initial: env.Memory}
	} else {
		coster = opt.StaticParams{Mem: env.Memory}
	}
	eng, err := opt.NewOptimizer(o.cat, q, o.opts, opt.Config{
		Space:     search.Space,
		Coster:    coster,
		Objective: search.Objective,
	})
	if err != nil {
		return nil, classifyErr(err)
	}
	res, err := eng.OptimizeCtx(ctx)
	if err != nil {
		return nil, classifyErr(err)
	}
	return o.newDecision(AlgorithmC, res, q, env), nil
}

// Compare optimizes the query under every strategy and returns the
// decisions in Strategies() order — the side-by-side view the paper's
// argument is about.
func (o *Optimizer) Compare(q *query.SPJ, env Environment) ([]*Decision, error) {
	return o.CompareContext(context.Background(), q, env)
}

// CompareContext is Compare under a request context and budget. Each
// strategy gets its own budget meter; a strategy that degrades still
// contributes its (flagged) decision.
func (o *Optimizer) CompareContext(ctx context.Context, q *query.SPJ, env Environment) ([]*Decision, error) {
	out := make([]*Decision, 0, len(Strategies()))
	for _, s := range Strategies() {
		d, err := o.OptimizeContext(ctx, q, env, s)
		if err != nil {
			return nil, fmt.Errorf("lec: strategy %v: %w", s, err)
		}
		out = append(out, d)
	}
	return out, nil
}
