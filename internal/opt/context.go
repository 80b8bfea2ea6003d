// Package opt implements least-expected-cost (LEC) query optimization as
// one objective-driven search engine. The paper's Algorithms A–D, the
// dynamic-parameter variant, bushy and pipelined search, and the 2002
// expected-utility extension are all the same bottom-up dynamic program
// differing only along three orthogonal axes, and the Optimizer type is
// configured with exactly those axes:
//
//   - a Space — which plan shapes are enumerated: left-deep (the System R
//     heuristic, paper §2.2), bushy (all binary trees), or pipelined
//     (left-deep under the pipeline-aware phase model of §4);
//   - a Coster — which run-time parameters are uncertain: FixedParams (one
//     known memory value, the classical LSC view), StaticParams (a static
//     memory distribution, §3.4), PhasedParams (per-phase distributions,
//     §3.5), MarkovParams (memory evolving by a Markov chain, Theorem 3.4),
//     or MultiParams (memory plus relation-size and selectivity
//     distributions, §3.6);
//   - an Objective — what is minimized per step: ExpectedCost (risk
//     neutral, Theorems 2.1/3.3/3.4), ExponentialUtility (the certainty
//     equivalent of e^{γ·cost}, exact for independent phases), or
//     VariancePenalized (E[c] + λ·Var[c], exact because variances add
//     across independent phases).
//
// NewOptimizer(...).OptimizeCtx is the one context-aware route for a
// single search. The paper-named entry points — SystemR, LSCPlan,
// AlgorithmC/CDynamic/D, BushyAlgorithmC, ExpUtilityDP, Tiered,
// ExhaustivePipelined — are that run under a background context at a known
// configuration. AlgorithmA, AlgorithmB and OptimizeWithAggregation build
// candidate pools from many searches on one session and take the request
// context themselves. The other Exhaustive* functions are deliberately
// *not* built on the engine: they are independent brute-force oracles used
// to verify it.
package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// Options configures the optimizers.
type Options struct {
	// Methods is the set of join algorithms to consider; nil means all.
	Methods []cost.Method
	// AvoidCrossProducts skips join steps with no connecting predicate
	// whenever the subset has some connected extension — the standard
	// System R heuristic. Disabled by default so that the dynamic programs
	// and the exhaustive enumerators explore identical plan spaces.
	AvoidCrossProducts bool
	// RebucketBudget caps the support size of propagated size
	// distributions in Algorithm D (paper §3.6.3). 0 means DefaultBudget.
	RebucketBudget int
	// TopC is the number of plans Algorithm B keeps per node; 0 means
	// DefaultTopC.
	TopC int
	// Budget bounds the work of each run in units of the engine's own
	// Stats counters (see failsoft.go); the zero value is unlimited. When
	// a budget trips mid-search the engine degrades down the anytime
	// ladder instead of failing.
	Budget Budget
	// NaiveOrderHandling disables the order-aware root step: the DP keeps
	// only the cheapest plan for the full relation set and bolts the ORDER
	// BY sort on top, instead of weighing every root candidate with the
	// sort included. This is the ablation of System R's "interesting
	// orders" idea — Example 1.1's Plan 1 is only found because the
	// order-aware root credits sort-merge with the free order.
	NaiveOrderHandling bool
	// Trace enables the structured decision-trace recorder: per-subset DP
	// decisions (winner, runner-up, expected-cost gap) and every finished
	// root candidate are captured on Result.Trace. Off by default — when
	// off, the search pays a single nil check per subset.
	Trace bool
	// Metrics, when non-nil, receives per-run phase timings and counter
	// deltas (see obs.NewOptMetrics). Off by default; safe to share across
	// engines and goroutines.
	Metrics *obs.OptMetrics
	// Enumeration selects the lattice sweep policy (see enum.go):
	// EnumExhaustive (the default — every subset, byte-identical to the
	// pre-seam engine) or EnumConnected (only connected subgraphs of the
	// join graph, DPconn-style). Connected enumeration returns the same
	// plan, cost and trace as exhaustive whenever the exhaustive winner
	// contains no cross join, and falls back to exhaustive automatically
	// when the join graph is disconnected. It applies to the left-deep,
	// bushy and top-c lattice sweeps; the pipelined space and the
	// exhaustive oracles are unaffected.
	Enumeration Enumeration
	// Tier selects the tiered-planning mode (see tier.go): TierDP (the zero
	// value — always run the configured DP search), TierAuto (serve the
	// greedy fast path when its expected cost is provably within
	// DefaultTierMaxGap of the optimum, escalate to the DP otherwise), or
	// TierGreedy (pin planning to the greedy tier; the DP runs only on
	// greedy faults).
	Tier Tier
}

// DefaultBudget is the default Algorithm D rebucketing budget.
const DefaultBudget = 27

// DefaultTopC is Algorithm B's default plan-list length.
const DefaultTopC = 3

// normalize fills every defaulted field, so downstream code can read the
// fields directly instead of re-deriving defaults at each use site. It is
// the single place the defaulting rules live; NewContext normalizes the
// options it stores, which also hoists the cost.Methods() allocation out of
// the DP inner loops.
func (o Options) normalize() Options {
	if len(o.Methods) == 0 {
		o.Methods = cost.Methods()
	}
	if o.RebucketBudget <= 0 {
		o.RebucketBudget = DefaultBudget
	}
	if o.TopC <= 0 {
		o.TopC = DefaultTopC
	}
	return o
}

func (o Options) methods() []cost.Method { return o.normalize().Methods }

func (o Options) budget() int { return o.normalize().RebucketBudget }

func (o Options) topC() int { return o.normalize().TopC }

// Counters instruments the optimizers, both for the complexity experiments
// (E3: merge combinations, E4: cost-formula evaluations) and for the
// engine's observability surface (lecopt -explain, lecbench).
type Counters struct {
	// CostEvals counts cost-formula evaluations.
	CostEvals int
	// PlansBuilt counts distinct plan nodes constructed. Structurally
	// identical candidates are interned in the session arena, so repeat
	// constructions show up in ArenaHits instead.
	PlansBuilt int
	// MergeCombos counts plan-pair combinations examined by Algorithm B's
	// top-c merges in total.
	MergeCombos int
	// MaxMergeCombos is the largest number of combinations examined by any
	// single top-c merge (bounded by c + c·ln c per Proposition 3.1).
	MaxMergeCombos int
	// Subsets counts lattice nodes (relation subsets) the search visited.
	Subsets int
	// SubsetsEnumerated counts lattice nodes the enumerator emitted to the
	// level sweeps (before budget/cancellation gating); under
	// EnumExhaustive it approaches 2^n.
	SubsetsEnumerated int
	// SubsetsSkipped counts lattice nodes the connected enumerator pruned
	// without a visit — per level, C(n,d) minus the connected subsets
	// emitted. Always zero under EnumExhaustive; the enumerated/skipped
	// ratio is the observable pruning win per query shape.
	SubsetsSkipped int
	// JoinSteps counts join steps priced (one per method per extension).
	JoinSteps int
	// Prunes counts candidates considered and discarded: non-improving DP
	// candidates and top-c list truncations.
	Prunes int
	// MemoHits counts per-subset statistic lookups served from the memo
	// tables (row counts, page counts, size distributions).
	MemoHits int
	// NonFiniteCosts counts cost evaluations that produced NaN/±Inf and
	// were neutralized to +Inf by the fail-soft guard.
	NonFiniteCosts int
	// Degradations counts runs that returned a degraded (anytime/fallback)
	// plan instead of the configured search's optimum.
	Degradations int
	// PanicsRecovered counts panics the engine recovered from mid-search.
	PanicsRecovered int
	// ArenaSize is the number of distinct plan nodes interned in the
	// session arena (a gauge, not a running total).
	ArenaSize int
	// ArenaHits counts node constructions served from the arena instead of
	// allocating a duplicate.
	ArenaHits int
	// TierGreedyServed counts optimizations the greedy tier answered without
	// finishing the DP: served at the gate, or certified by a complete DP
	// level.
	TierGreedyServed int
	// TierEscalations counts optimizations the tier controller escalated
	// from the greedy tier that ended on the DP.
	TierEscalations int
}

// Add accumulates other into c. Running totals sum; the gauges
// (MaxMergeCombos, ArenaSize) take the max.
func (c *Counters) Add(other Counters) {
	c.CostEvals += other.CostEvals
	c.PlansBuilt += other.PlansBuilt
	c.MergeCombos += other.MergeCombos
	if other.MaxMergeCombos > c.MaxMergeCombos {
		c.MaxMergeCombos = other.MaxMergeCombos
	}
	c.Subsets += other.Subsets
	c.SubsetsEnumerated += other.SubsetsEnumerated
	c.SubsetsSkipped += other.SubsetsSkipped
	c.JoinSteps += other.JoinSteps
	c.Prunes += other.Prunes
	c.MemoHits += other.MemoHits
	c.NonFiniteCosts += other.NonFiniteCosts
	c.Degradations += other.Degradations
	c.PanicsRecovered += other.PanicsRecovered
	c.ArenaHits += other.ArenaHits
	if other.ArenaSize > c.ArenaSize {
		c.ArenaSize = other.ArenaSize
	}
	c.TierGreedyServed += other.TierGreedyServed
	c.TierEscalations += other.TierEscalations
}

// Context carries everything the optimizers share: the catalog, the query,
// derived per-relation statistics, memoized per-subset size estimates, and
// the session's plan-node arena. Size estimates depend only on the subset,
// not on the join order — the observation (paper §2.2, point 3) that makes
// dynamic programming valid — and node identity depends only on structure,
// which is what makes the arena sound.
type Context struct {
	Cat  *catalog.Catalog
	Q    *query.SPJ
	Opts Options // normalized: Methods, RebucketBudget and TopC are always set

	// per-relation statistics after pushing down local selections
	baseRows  []float64 // filtered row count
	basePages []float64 // filtered page count
	ppr       []float64 // pages per row of one relation's tuples
	scans     [][]*plan.Scan

	// join-graph index: the DP inner loops test connectivity and collect
	// step predicates once per (subset, relation) pair, so the string-keyed
	// SPJ lookups are resolved to relation indices once per session.
	relPreds  [][]relPredRef // per relation: predicates touching it, in Q.Joins order
	conn      []query.RelSet // per relation: relations it shares a predicate with
	predSides [][2]int       // per Q.Joins entry: (left, right) relation indices (-1 if unknown)

	// enumeration state (see enum.go): the effective enumerator (requested
	// EnumConnected degrades to EnumExhaustive on disconnected graphs) and
	// the cached connected-subgraph levels.
	enumEff Enumeration
	csg     *query.CsgEnum

	// arena interns join and sort nodes for the session.
	arena *plan.Arena

	// memoized subset statistics (NaN = not yet computed)
	subsetRows  *subsetTab[float64]
	subsetPages *subsetTab[float64]

	// memoized subset row-count distributions (Algorithm D; nil = not yet
	// computed)
	subsetRowDist *subsetTab[*stats.Dist]

	// fail-soft run state (see failsoft.go): the request context, the
	// sticky interruption cause, the countdown to the next context poll,
	// and the NonFiniteCosts watermark taken at beginRun.
	reqCtx        context.Context
	stopCause     error
	pollCountdown int
	nonFiniteMark int
	// interrupted is the sticky form of stopCause: it survives the reset
	// at the next beginRun, so a multi-run session that was ever
	// interrupted is never recycled (see session.go).
	interrupted bool

	// observability state (see obs.go): the decision-trace recorder (nil
	// unless Options.Trace), the metrics bundle (nil unless
	// Options.Metrics), per-run timing accumulators, and the per-subset
	// equi-depth bucketing error contributions (summed in ascending subset
	// order, so the session total does not depend on the visiting order).
	trace          *obs.Recorder
	metrics        *obs.OptMetrics
	obsWant        bool // metrics or trace enabled — session-constant
	metricsMark    Counters
	runStart       time.Time
	costingNanos   int64
	bucketingNanos int64
	bucketErr      *subsetTab[float64]
	bucketErrMark  float64

	Count Counters
}

// NewContext validates the query against the catalog and precomputes
// per-relation statistics and access paths.
func NewContext(cat *catalog.Catalog, q *query.SPJ, opts Options) (*Context, error) {
	if err := q.Validate(cat); err != nil {
		return nil, err
	}
	n := q.NumRels()
	ctx := &Context{
		Cat: cat, Q: q, Opts: opts.normalize(),
		baseRows:  make([]float64, n),
		basePages: make([]float64, n),
		ppr:       make([]float64, n),
		scans:     make([][]*plan.Scan, n),
		arena:     plan.NewArena(),
	}
	if ctx.Opts.Trace {
		ctx.trace = obs.NewRecorder(obs.DefaultTraceCap)
	}
	ctx.metrics = ctx.Opts.Metrics
	ctx.obsWant = ctx.metrics != nil || ctx.trace != nil
	for i, name := range q.Tables {
		tab, err := cat.Table(q.BaseTable(name))
		if err != nil {
			return nil, err
		}
		sel := q.LocalSelectivity(name)
		rows := float64(tab.Rows) * sel
		pages := tab.Pages * sel
		if pages < 1 && tab.Pages >= 1 {
			pages = 1
		}
		ctx.baseRows[i] = rows
		ctx.basePages[i] = pages
		if rows > 0 {
			ctx.ppr[i] = pages / rows
		} else {
			ctx.ppr[i] = 1
		}
		ctx.scans[i] = ctx.buildScans(i, tab)
		if len(ctx.scans[i]) == 0 {
			return nil, fmt.Errorf("opt: no access path for table %q", name)
		}
	}
	ctx.buildJoinIndex()
	ctx.initEnum()
	ctx.subsetRows = nanTab(n)
	ctx.subsetPages = nanTab(n)
	ctx.subsetRowDist = &subsetTab[*stats.Dist]{n: n}
	ctx.bucketErr = &subsetTab[float64]{n: n}
	return ctx, nil
}

// relPredRef is one entry of the per-relation predicate index: the Q.Joins
// position of the predicate and the relation on its other side.
type relPredRef struct {
	other int
	idx   int
}

// buildJoinIndex resolves every join predicate's table names to relation
// indices and records, per relation, which predicates touch it. This is the
// session-resolved form of query.JoinsBetween / StepSelectivity: entries
// are kept in Q.Joins order so the derived predicate lists and selectivity
// products match the SPJ methods exactly.
func (ctx *Context) buildJoinIndex() {
	q := ctx.Q
	n := q.NumRels()
	ctx.relPreds = make([][]relPredRef, n)
	ctx.conn = make([]query.RelSet, n)
	ctx.predSides = make([][2]int, len(q.Joins))
	for pi, p := range q.Joins {
		li, ri := q.TableIndex(p.Left.Table), q.TableIndex(p.Right.Table)
		ctx.predSides[pi] = [2]int{li, ri}
		for j := 0; j < n; j++ {
			if !p.Touches(q.Tables[j]) {
				continue
			}
			other := li
			if p.Left.Table == q.Tables[j] {
				other = ri
			}
			if other < 0 {
				continue
			}
			ctx.relPreds[j] = append(ctx.relPreds[j], relPredRef{other: other, idx: pi})
			ctx.conn[j] = ctx.conn[j].Add(other)
		}
	}
}

// stepPreds returns the predicates connecting relation j to subset s —
// query.JoinsBetween(s, j) computed from the session index — in a slice
// carved from the session arena.
func (ctx *Context) stepPreds(s query.RelSet, j int) []query.JoinPred {
	cnt := 0
	for _, rp := range ctx.relPreds[j] {
		if s.Has(rp.other) {
			cnt++
		}
	}
	out := ctx.arena.Preds(cnt)[:0]
	for _, rp := range ctx.relPreds[j] {
		if s.Has(rp.other) {
			out = append(out, ctx.Q.Joins[rp.idx])
		}
	}
	return out
}

// stepSel returns the combined selectivity of stepPreds(s, j) —
// query.StepSelectivity(s, j) computed from the session index, with the
// factors multiplied in the same order.
func (ctx *Context) stepSel(s query.RelSet, j int) float64 {
	sel := 1.0
	for _, rp := range ctx.relPreds[j] {
		if s.Has(rp.other) {
			sel *= ctx.Q.Joins[rp.idx].Selectivity
		}
	}
	return sel
}

// connected reports whether any join predicate links subset a to subset b.
func (ctx *Context) connected(a, b query.RelSet) bool {
	for t := a; t != 0; t &= t - 1 {
		if ctx.conn[bits.TrailingZeros32(uint32(t))]&b != 0 {
			return true
		}
	}
	return false
}

// buildScans enumerates the access paths for relation i: a sequential scan,
// plus an index scan per index whose key column appears in a local
// selection (sargable access) or matches the query's ORDER BY (order-
// producing access).
func (ctx *Context) buildScans(i int, tab *catalog.Table) []*plan.Scan {
	name := ctx.Q.Tables[i]
	filters := ctx.Q.SelectionsOn(name)
	localSel := ctx.Q.LocalSelectivity(name)
	out := []*plan.Scan{{
		Table: name, Base: ctx.Q.BaseTable(name), RelIdx: i, Method: plan.SeqScan,
		Filters:   filters,
		BasePages: tab.Pages, BaseRows: float64(tab.Rows),
		Selectivity: localSel,
		Pages:       ctx.basePages[i], Rows: ctx.baseRows[i],
	}}
	for _, idx := range tab.Indexes {
		// Index is useful if its column has a filter, or if it can deliver
		// the ORDER BY order (clustered only — a non-clustered full traversal
		// is never attractive under this cost model).
		var idxSel float64 = -1
		for _, f := range filters {
			if f.Col.Column == idx.Column {
				idxSel = f.Selectivity
				break
			}
		}
		orderCol := query.ColumnRef{Table: name, Column: idx.Column}
		producesOrder := idx.Clustered
		wantOrder := ctx.Q.OrderBy != nil && *ctx.Q.OrderBy == orderCol
		if idxSel < 0 {
			if !(wantOrder && producesOrder) {
				continue
			}
			idxSel = 1
		}
		s := &plan.Scan{
			Table: name, Base: ctx.Q.BaseTable(name), RelIdx: i, Method: plan.IndexScan,
			Index: idx.Name, IndexClustered: idx.Clustered, IndexHeight: idx.Height,
			Filters:   filters,
			BasePages: tab.Pages, BaseRows: float64(tab.Rows),
			Selectivity: idxSel,
			Pages:       ctx.basePages[i], Rows: ctx.baseRows[i],
		}
		if producesOrder {
			s.SortedOn = []query.ColumnRef{orderCol}
		}
		out = append(out, s)
	}
	return out
}

// Scans returns the access-path candidates for relation i.
func (ctx *Context) Scans(i int) []*plan.Scan { return ctx.scans[i] }

// BestScan returns the access path for relation i with the least cost.
// Scan costs do not depend on memory, so the LSC and LEC access paths
// coincide.
func (ctx *Context) BestScan(i int) *plan.Scan {
	best := ctx.scans[i][0]
	bc := best.AccessCost()
	for _, s := range ctx.scans[i][1:] {
		if c := s.AccessCost(); c < bc {
			best, bc = s, c
		}
	}
	return best
}

// SubsetRows returns the estimated row count of ⋈_{i∈S} A_i: the product of
// the filtered base cardinalities and the selectivities of every join
// predicate internal to S. It is independent of join order.
func (ctx *Context) SubsetRows(s query.RelSet) float64 {
	if r := ctx.subsetRows.get(s); !math.IsNaN(r) {
		ctx.Count.MemoHits++
		return r
	}
	rows := 1.0
	s.ForEach(func(i int) { rows *= ctx.baseRows[i] })
	// predSides resolved the endpoint names once at session build; the
	// factors multiply in Q.Joins order, same as query.StepSelectivity.
	// Indexing Q.Joins, rather than ranging over it by value, reads one
	// field instead of copying each predicate.
	for pi, ends := range ctx.predSides {
		if s.Has(ends[0]) && s.Has(ends[1]) {
			rows *= ctx.Q.Joins[pi].Selectivity
		}
	}
	ctx.subsetRows.put(s, rows)
	return rows
}

// SubsetPPR returns the pages-per-row of the subset's result tuples: the
// concatenation of one tuple from each input.
func (ctx *Context) SubsetPPR(s query.RelSet) float64 {
	t := 0.0
	s.ForEach(func(i int) { t += ctx.ppr[i] })
	return t
}

// SubsetPages returns the estimated result size in pages.
func (ctx *Context) SubsetPages(s query.RelSet) float64 {
	if p := ctx.subsetPages.get(s); !math.IsNaN(p) {
		ctx.Count.MemoHits++
		return p
	}
	pages := ctx.SubsetRows(s) * ctx.SubsetPPR(s)
	if s.Len() == 1 {
		pages = ctx.basePages[s.Single()]
	}
	if pages < 0 {
		pages = 0
	}
	ctx.subsetPages.put(s, pages)
	return pages
}

// NewJoin returns the (interned) join node combining the plan for S\{j}
// with an access path for relation j, with output estimates for subset S.
// The estimates are functions of (left, right, method) alone, so the arena
// can hand back the canonical node when the same candidate is rebuilt —
// which the DP does once per lattice extension, and Algorithms A/B once per
// memory bucket on top of that.
func (ctx *Context) NewJoin(left plan.Node, right *plan.Scan, m cost.Method, s query.RelSet, j int) *plan.Join {
	jn, isNew := ctx.arena.Join(left, right, m)
	if isNew {
		jn.Preds = ctx.stepPreds(s.Without(j), j)
		ctx.Count.PlansBuilt++
		jn.Selectivity = ctx.stepSel(s.Without(j), j)
		jn.Pages = ctx.SubsetPages(s)
		jn.Rows = ctx.SubsetRows(s)
	}
	return jn
}

// extensionAllowed applies the cross-product policy: when
// AvoidCrossProducts is set, relation j may extend subset s only if a join
// predicate connects them — unless no relation outside s is connected, in
// which case cross products are unavoidable and all extensions are allowed.
func (ctx *Context) extensionAllowed(s query.RelSet, j int) bool {
	if !ctx.Opts.AvoidCrossProducts || s.Empty() {
		return true
	}
	if ctx.conn[j]&s != 0 {
		return true
	}
	// Is any outside relation connected to s?
	n := ctx.Q.NumRels()
	for k := 0; k < n; k++ {
		if !s.Has(k) && ctx.conn[k]&s != 0 {
			return false // a connected extension exists; skip this cross product
		}
	}
	return true
}

// FinishPlan enforces the query's ORDER BY: if the plan's output order does
// not already cover the requested column, an (interned) Sort is added. The
// returned bool reports whether a sort was added.
func (ctx *Context) FinishPlan(n plan.Node) (plan.Node, bool) {
	if ctx.Q.OrderBy == nil || plan.SatisfiesOrder(n, *ctx.Q.OrderBy) {
		return n, false
	}
	st, isNew := ctx.arena.Sort(n, *ctx.Q.OrderBy)
	if isNew {
		ctx.Count.PlansBuilt++
	}
	return st, true
}

// snapshotCount returns the current counters with the arena gauges filled
// in — the Counters value Results and Optimizer.Stats report.
func (ctx *Context) snapshotCount() Counters {
	c := ctx.Count
	c.ArenaSize = ctx.arena.Size()
	c.ArenaHits = ctx.arena.Hits()
	return c
}
