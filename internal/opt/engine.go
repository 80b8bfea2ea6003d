package opt

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// Space selects the plan shapes the engine enumerates.
type Space int

// Search spaces.
const (
	// SpaceLeftDeep is the System R restriction (paper §2.2 heuristic 2):
	// every join's inner input is a base-relation access path. The DP over
	// the subset lattice is exact for every decomposable objective.
	SpaceLeftDeep Space = iota
	// SpaceBushy admits every binary join tree. The per-subset principle of
	// optimality still holds (subset statistics are order-independent), so
	// the all-splits DP is exact; joins are charged at phase |S|−2, the
	// depth at which the left-deep walk would execute them.
	SpaceBushy
	// SpacePipelined scores left-deep plans under the pipeline-aware phase
	// model (paper §4): runs of pipelining joins share one phase, blocking
	// joins open the next. A join's phase then depends on the methods below
	// it, which breaks the per-subset principle of optimality, so this
	// space is searched by exhaustive enumeration rather than DP.
	SpacePipelined
)

// String implements fmt.Stringer.
func (s Space) String() string {
	switch s {
	case SpaceLeftDeep:
		return "left-deep"
	case SpaceBushy:
		return "bushy"
	case SpacePipelined:
		return "pipelined"
	default:
		return fmt.Sprintf("Space(%d)", int(s))
	}
}

// Coster declares which run-time parameters are uncertain and how. The
// concrete types below mirror the paper's parameter models.
type Coster interface{ isCoster() }

// FixedParams prices every step at one known memory value — the classical
// least-specific-cost view (paper §2.2).
type FixedParams struct{ Mem float64 }

// StaticParams prices steps in expectation over a static memory
// distribution (paper §3.4 — Algorithm C's model).
type StaticParams struct{ Mem *stats.Dist }

// PhasedParams gives each execution phase its own memory distribution
// (paper §3.5). Plans with more phases than len(Phases) extend with the
// last entry.
type PhasedParams struct{ Phases []*stats.Dist }

// MarkovParams models memory as a Markov chain: Initial is the phase-0
// distribution and Chain produces each later phase's marginal (paper §3.5,
// Theorem 3.4).
type MarkovParams struct {
	Chain   *stats.Chain
	Initial *stats.Dist
}

// MultiParams additionally models relation sizes and predicate
// selectivities as distributions (paper §3.6 — Algorithm D's model), with
// Mem as the static memory distribution.
type MultiParams struct{ Mem *stats.Dist }

func (FixedParams) isCoster()  {}
func (StaticParams) isCoster() {}
func (PhasedParams) isCoster() {}
func (MarkovParams) isCoster() {}
func (MultiParams) isCoster()  {}

// Objective declares what the engine minimizes. Every objective here
// decomposes additively over plan steps, which is exactly the condition
// under which the dynamic programs stay exact.
type Objective interface{ isObjective() }

// ExpectedCost minimizes E[Φ] — risk neutrality, the paper's LEC objective.
// A nil Objective in a Config means ExpectedCost.
type ExpectedCost struct{}

// ExponentialUtility minimizes the certainty equivalent of the exponential
// disutility e^{γ·cost} (the 2002 follow-up): γ > 0 is risk-averse, γ < 0
// risk-seeking. Exact when each phase's parameter is drawn independently.
type ExponentialUtility struct{ Gamma float64 }

// VariancePenalized minimizes E[cost] + λ·Var[cost] per phase. Variances of
// independent phases add, so the DP remains exact; λ = 0 recovers
// ExpectedCost.
type VariancePenalized struct{ Lambda float64 }

func (ExpectedCost) isObjective()       {}
func (ExponentialUtility) isObjective() {}
func (VariancePenalized) isObjective()  {}

// Config is one engine configuration: a point in Space × Coster × Objective.
type Config struct {
	// Space defaults to SpaceLeftDeep.
	Space Space
	// Coster is required.
	Coster Coster
	// Objective defaults to ExpectedCost.
	Objective Objective
}

// objective returns the configured objective with the nil default applied.
func (c Config) objective() Objective {
	if c.Objective == nil {
		return ExpectedCost{}
	}
	return c.Objective
}

// validate rejects configurations the engine cannot price exactly.
func (c Config) validate() error {
	switch c.Space {
	case SpaceLeftDeep, SpaceBushy, SpacePipelined:
	default:
		return fmt.Errorf("opt: unknown search space %v", c.Space)
	}
	switch o := c.objective().(type) {
	case ExpectedCost, VariancePenalized:
	case ExponentialUtility:
		if o.Gamma == 0 {
			return fmt.Errorf("opt: gamma must be non-zero (use AlgorithmC for risk neutrality)")
		}
	default:
		return fmt.Errorf("opt: unknown objective %T", c.Objective)
	}
	switch co := c.Coster.(type) {
	case nil:
		return fmt.Errorf("opt: config needs a Coster")
	case FixedParams:
	case StaticParams:
		if co.Mem == nil {
			return fmt.Errorf("opt: static coster needs a memory distribution")
		}
	case PhasedParams:
		if len(co.Phases) == 0 {
			return fmt.Errorf("opt: no phase distributions")
		}
	case MarkovParams:
		if co.Chain == nil || co.Initial == nil {
			return fmt.Errorf("opt: markov coster needs a chain and an initial distribution")
		}
	case MultiParams:
		if co.Mem == nil {
			return fmt.Errorf("opt: multi-parameter coster needs a memory distribution")
		}
		if _, ok := c.objective().(ExpectedCost); !ok {
			return fmt.Errorf("opt: multi-parameter costing supports only the expected-cost objective")
		}
	default:
		return fmt.Errorf("opt: unknown coster %T", c.Coster)
	}
	return nil
}

// Stats is the engine's instrumentation snapshot, reported on every Result
// and by Optimizer.Stats.
type Stats = Counters

// Optimizer is the unified search engine. One Optimizer owns one Context —
// catalog + query + memo tables + plan arena — and can be reconfigured
// (Reconfigure, SetCoster) without discarding any of that state, which is
// how Algorithms A and B run their b per-bucket searches against shared
// memos instead of rebuilding them b times.
type Optimizer struct {
	ctx    *Context
	cfg    Config
	pricer stepPricer

	// scratch reused across runs. The dense slices back dpt/topt when the
	// session's sizing is dense; sparse runs allocate fresh tables per run.
	dp        []dpEntry    // dense left-deep / bushy DP backing, indexed by RelSet
	top       [][]topEntry // dense top-c backing, indexed by RelSet
	dpt       dpTab        // the current run's DP table (salvage reads it too)
	topt      topTab       // the current run's top-c table
	scanTops  [][]topEntry // per-relation sorted access paths (top-c)
	scanTopsC int          // the c scanTops was truncated to

	// tier is the current run's tiered-planning outcome (see tier.go);
	// reset at the top of every optimizeCtxInner.
	tier tierState

	// sc is the pooled scratch the session runs on when its first run's
	// context came from Pooled (see session.go); adopted marks that the
	// first run has looked.
	sc      *scratch
	adopted bool
}

// NewOptimizer builds an engine for one query under one configuration.
func NewOptimizer(cat *catalog.Catalog, q *query.SPJ, opts Options, cfg Config) (*Optimizer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ctx, err := NewContext(cat, q, opts)
	if err != nil {
		return nil, err
	}
	o := &Optimizer{ctx: ctx, cfg: cfg}
	o.pricer = o.compile()
	return o, nil
}

// Reconfigure swaps the engine's configuration while keeping the session
// state (memo tables, arena, counters). The outgoing pricer's pooled batch
// scratch is recycled — Algorithm A/B sessions reconfigure once per bucket.
func (o *Optimizer) Reconfigure(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	o.cfg = cfg
	releasePricerCaches(o.pricer)
	o.pricer = o.compile()
	return nil
}

// SetCoster swaps only the coster — Algorithm A/B's per-bucket move.
func (o *Optimizer) SetCoster(c Coster) error {
	cfg := o.cfg
	cfg.Coster = c
	return o.Reconfigure(cfg)
}

// Config returns the engine's current configuration.
func (o *Optimizer) Config() Config { return o.cfg }

// Stats returns the cumulative instrumentation counters for the session.
func (o *Optimizer) Stats() Stats { return o.ctx.snapshotCount() }

// Optimize runs the configured search and returns the best finished plan.
// It is OptimizeCtx under a background context: with the default unlimited
// Budget nothing can interrupt the search, so the result is identical to the
// pre-fail-soft engine's.
func (o *Optimizer) Optimize() (*Result, error) {
	return o.OptimizeCtx(context.Background())
}

// OptimizeTop returns the best c finished plans and their objective values,
// ascending — the per-bucket building block of Algorithm B. Only the
// left-deep space maintains top-c lists.
func (o *Optimizer) OptimizeTop(c int) ([]plan.Node, []float64, error) {
	if o.cfg.Space != SpaceLeftDeep {
		return nil, nil, fmt.Errorf("opt: top-%d search requires the left-deep space, not %v", c, o.cfg.Space)
	}
	roots, err := o.runTopC(c)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]plan.Node, len(roots))
	costs := make([]float64, len(roots))
	for i, r := range roots {
		plans[i], costs[i] = r.node, r.cost
	}
	return plans, costs, nil
}

// compile lowers the (Coster, Objective) pair to a concrete step pricer.
// The mapping is chosen so each historical algorithm's arithmetic is
// reproduced bit for bit: FixedParams × ExpectedCost is the classical
// coster (JoinCost, one eval per step), any distributional coster ×
// ExpectedCost is the phase-indexed expected coster (static = one phase),
// and MultiParams is Algorithm D's distribution-propagating coster. The
// config has already been validated.
func (o *Optimizer) compile() stepPricer {
	return o.compileFor(o.ctx)
}

// compileFor compiles the configured pricer against an arbitrary context —
// o.ctx for the sequential engine, a worker shell for the parallel driver
// (each worker prices through its own shell so counter shards stay private).
// Batch-capable pricers get their per-session caches built here: the
// phase-indexed pricer's clamped bucket vectors, Algorithm D's shared
// memory-side prefix table.
func (o *Optimizer) compileFor(ctx *Context) stepPricer {
	switch obj := o.cfg.objective().(type) {
	case ExponentialUtility:
		return ceCoster{ctx: ctx, phases: o.phaseDists(), gamma: obj.Gamma}
	case VariancePenalized:
		return mvCoster{ctx: ctx, phases: o.phaseDists(), lambda: obj.Lambda}
	default: // ExpectedCost
		switch c := o.cfg.Coster.(type) {
		case FixedParams:
			return fixedCoster{ctx: ctx, mem: c.Mem}
		case MultiParams:
			return distCoster{ctx: ctx, dm: c.Mem, mt: cost.NewMemTable(c.Mem)}
		default:
			phases := o.phaseDists()
			return phasedCoster{ctx: ctx, phases: phases, batches: newPhaseBatches(phases)}
		}
	}
}

// phaseDists renders the coster's parameter model as per-phase memory
// distributions: a fixed value is a point distribution, a static
// distribution is one phase (every phase index clamps to it), and a Markov
// chain is unrolled for the query's n−1 join phases.
func (o *Optimizer) phaseDists() []*stats.Dist {
	switch c := o.cfg.Coster.(type) {
	case FixedParams:
		return []*stats.Dist{stats.Point(c.Mem)}
	case StaticParams:
		return []*stats.Dist{c.Mem}
	case PhasedParams:
		return c.Phases
	case MarkovParams:
		phases := o.ctx.Q.NumRels() - 1
		if phases < 1 {
			phases = 1
		}
		return c.Chain.PhaseDists(c.Initial, phases)
	default:
		panic(fmt.Sprintf("opt: coster %T has no phase-distribution form", o.cfg.Coster))
	}
}

// dpTable returns the cleared DP table for a run (node == nil marks an
// unsolved subset). Dense sizing reuses the 2^n backing slice across runs;
// sparse sizing allocates a table proportional to the enumerator's
// prediction — an n=30 chain run costs hundreds of entries, not 2^30.
func (o *Optimizer) dpTable(n int) *dpTab {
	if o.ctx.sizing.dense {
		size := 1 << uint(n)
		if cap(o.dp) < size {
			o.dp = make([]dpEntry, size)
		} else {
			o.dp = o.dp[:size]
			clear(o.dp)
		}
		o.dpt = dpTab{dense: o.dp}
	} else {
		o.dpt = dpTab{sparse: newSparseTab[dpEntry](o.ctx.sizing.predict)}
	}
	return &o.dpt
}

// topTable returns the cleared top-c list table, with the same dense/sparse
// split as dpTable.
func (o *Optimizer) topTable(n int) *topTab {
	if o.ctx.sizing.dense {
		size := 1 << uint(n)
		if cap(o.top) < size {
			o.top = make([][]topEntry, size)
		} else {
			o.top = o.top[:size]
			clear(o.top)
		}
		o.topt = topTab{dense: o.top}
	} else {
		o.topt = topTab{sparse: newSparseTab[[]topEntry](o.ctx.sizing.predict)}
	}
	return &o.topt
}

// scanLists returns the per-relation access-path lists sorted ascending by
// cost and truncated to c. Scan costs are memory-independent, so the lists
// are computed once and reused across Algorithm B's bucket invocations.
func (o *Optimizer) scanLists(c int) [][]topEntry {
	if o.scanTops != nil && o.scanTopsC == c {
		return o.scanTops
	}
	n := o.ctx.Q.NumRels()
	lists := make([][]topEntry, n)
	for i := 0; i < n; i++ {
		var l []topEntry
		for _, s := range o.ctx.Scans(i) {
			l = append(l, topEntry{node: s, cost: s.AccessCost()})
		}
		lists[i] = sortTruncate(o.ctx, l, c)
	}
	o.scanTops, o.scanTopsC = lists, c
	return lists
}
