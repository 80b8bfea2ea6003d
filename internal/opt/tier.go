package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file is the engine's tiered-planning layer: a sub-100µs greedy
// join-ordering planner as rung zero of the optimizer, with a risk-triggered
// escalation to the full LEC dynamic program. It is the degradation ladder
// of failsoft.go run in reverse: instead of starting with the DP and falling
// back to greedy under pressure, the tier controller starts with greedy and
// climbs to the DP only when the LEC machinery's own risk signals — the
// expected-cost gap against an admissible lower bound, the greedy plan's
// cost variance, and probability mass near a cost level-set boundary — say
// the cheap plan cannot be trusted.
//
// The greedy planner prices steps with the same expected-cost arithmetic as
// plan.ExpCostPhased (sums over the phase distribution's support), so a
// served greedy plan's Result.Cost is exactly what re-scoring the plan under
// the active coster would report: the gap bound G ≤ (1+MaxGap)·LB ≤
// (1+MaxGap)·OPT is a real guarantee, not an estimate of one.

// Tier selects the tiered-planning mode. The zero value (TierDP) runs the
// configured DP search unconditionally — existing behavior. The ordering is
// deliberate: a larger Tier is a cheaper planning mode, which is what lets
// serve's pressure ladder force tiers with a max.
type Tier int

// Tiered-planning modes.
const (
	// TierDP always runs the configured DP search (the default).
	TierDP Tier = iota
	// TierAuto serves the greedy tier when its risk signals are below the
	// TierRisk thresholds and escalates to the DP otherwise.
	TierAuto
	// TierGreedy pins planning to the greedy tier; the DP runs only when the
	// greedy planner faults or the configuration has no greedy scoring.
	TierGreedy
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierDP:
		return "dp"
	case TierAuto:
		return "auto"
	case TierGreedy:
		return "greedy"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// ParseTier parses a -tier flag value. The empty string means TierDP.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "dp":
		return TierDP, nil
	case "auto":
		return TierAuto, nil
	case "greedy":
		return TierGreedy, nil
	default:
		return TierDP, fmt.Errorf("opt: unknown tier %q (want dp, auto or greedy)", s)
	}
}

// TierRisk configures when TierAuto trusts the greedy tier. Zero fields take
// the Default* values below.
type TierRisk struct {
	// MaxGap bounds the relative expected-cost gap of the greedy plan vs the
	// admissible lower bound: serve only if greedy ≤ (1+MaxGap)·LB, which
	// implies greedy ≤ (1+MaxGap)·OPT.
	MaxGap float64
	// MaxCV bounds the greedy plan's cost coefficient of variation
	// (√Var[Φ]/E[Φ] with per-phase variances summed).
	MaxCV float64
	// BoundaryMargin is the relative distance to a cost level-set boundary
	// within which a memory support point counts as "near" it.
	BoundaryMargin float64
	// BoundaryMass bounds the probability mass near a boundary: if any
	// greedy step puts more than this mass within BoundaryMargin of one of
	// its cost breakpoints, the step's cost is a coin flip and the DP runs.
	BoundaryMass float64
}

// Default TierRisk thresholds.
const (
	DefaultTierMaxGap         = 0.25
	DefaultTierMaxCV          = 0.5
	DefaultTierBoundaryMargin = 0.1
	DefaultTierBoundaryMass   = 0.25
)

// normalize fills defaulted thresholds.
func (r TierRisk) normalize() TierRisk {
	if r.MaxGap <= 0 {
		r.MaxGap = DefaultTierMaxGap
	}
	if r.MaxCV <= 0 {
		r.MaxCV = DefaultTierMaxCV
	}
	if r.BoundaryMargin <= 0 {
		r.BoundaryMargin = DefaultTierBoundaryMargin
	}
	if r.BoundaryMass <= 0 {
		r.BoundaryMass = DefaultTierBoundaryMass
	}
	return r
}

// Tier names recorded on Result.Tier.
const (
	// TierNameGreedy: the greedy tier's plan was served.
	TierNameGreedy = "greedy"
	// TierNameDP: the DP ran (after an escalation from the greedy tier).
	TierNameDP = "dp"
)

// Tier reasons recorded on Result.TierReason: why the greedy tier served,
// or why the run escalated to the DP.
const (
	// TierLowRisk: every risk signal was under its threshold.
	TierLowRisk = "low-risk"
	// TierForced: the tier was pinned by configuration (TierGreedy).
	TierForced = "forced"
	// TierEscGap: the expected-cost gap vs the lower bound exceeded MaxGap.
	TierEscGap = "gap"
	// TierEscVariance: the cost coefficient of variation exceeded MaxCV.
	TierEscVariance = "variance"
	// TierEscLevelSet: too much probability mass near a level-set boundary.
	TierEscLevelSet = "level-set"
	// TierEscObjective: the configured objective or coster has no greedy
	// scoring (risk objectives; Algorithm D's multi-parameter coster under
	// TierAuto).
	TierEscObjective = "objective"
	// TierEscFault: the greedy planner faulted (panic, injected NaN/Inf,
	// non-finite scores, or request cancellation mid-plan).
	TierEscFault = "fault"
	// TierEscUnplannable: the greedy planner found no admissible extension.
	TierEscUnplannable = "unplannable"
)

// errTierFault marks greedy-planner failures that are faults (as opposed to
// genuinely unplannable inputs).
var errTierFault = errors.New("opt: greedy tier fault")

// tierState carries one run's tier outcome from the gate to the epilogue
// (stampTier). Reset at the top of every optimizeCtxInner.
type tierState struct {
	tier        string // "" when the gate did not run
	reason      string
	gap         float64
	greedyCost  float64 // NaN when the greedy attempt produced no plan
	greedyNanos int64
	dpStart     time.Time // set on escalation; zero when greedy served
}

// tierPlan is one greedy planning attempt's output.
type tierPlan struct {
	node     plan.Node
	cost     float64 // expected total cost under the phase distributions
	variance float64 // summed per-step cost variance
	boundary float64 // max per-step probability mass near a breakpoint
}

// tierDistAt indexes the phase distributions with plan.ExpCostPhased's
// clamping semantics.
func tierDistAt(phases []*stats.Dist, i int) *stats.Dist {
	if i < 0 {
		i = 0
	}
	if i >= len(phases) {
		i = len(phases) - 1
	}
	return phases[i]
}

// tierGate is the tier controller, invoked at the top of optimizeCtxInner
// when Options.Tier is TierAuto or TierGreedy. It returns (result, true)
// when the greedy tier serves; otherwise it records the escalation on
// o.tier and returns (nil, false) so the DP runs.
func (o *Optimizer) tierGate() (*Result, bool) {
	ctx := o.ctx
	risk := ctx.Opts.TierRisk.normalize()

	// The greedy probe touches O(n²) subsets; keep the size memos sparse
	// for its duration so the fast path never pays the dense 2^n fill.
	// tierEscalate settles them back before the DP runs.
	ctx.beginSizeProbe()

	// Configurations without greedy scoring: the risk objectives price
	// certainty equivalents and variance penalties the greedy arithmetic
	// does not reproduce, and under TierAuto the multi-parameter coster's
	// size distributions make the scalar size estimates unsound signals.
	if _, ok := o.cfg.objective().(ExpectedCost); !ok {
		o.tierEscalate(TierEscObjective, math.NaN(), math.NaN(), 0)
		return nil, false
	}
	if _, multi := o.cfg.Coster.(MultiParams); multi && ctx.Opts.Tier != TierGreedy {
		o.tierEscalate(TierEscObjective, math.NaN(), math.NaN(), 0)
		return nil, false
	}

	phases := o.phaseDists()
	t0 := time.Now()
	gp, err := o.tierGreedyGuarded(phases, risk)
	nanos := time.Since(t0).Nanoseconds()
	if err != nil {
		reason := TierEscUnplannable
		if errors.Is(err, errTierFault) {
			reason = TierEscFault
		}
		o.tierEscalate(reason, math.NaN(), math.NaN(), nanos)
		return nil, false
	}

	lb := o.tierLowerBound(phases)
	gap := 0.0
	switch {
	case lb > 0:
		gap = gp.cost/lb - 1
	case gp.cost > 0:
		gap = math.Inf(1)
	}

	if ctx.Opts.Tier == TierGreedy {
		return o.tierServe(gp, TierForced, gap, nanos), true
	}
	switch {
	case gap > risk.MaxGap || math.IsNaN(gap):
		o.tierEscalate(TierEscGap, gap, gp.cost, nanos)
	case gp.cost > 0 && math.Sqrt(gp.variance)/gp.cost > risk.MaxCV:
		o.tierEscalate(TierEscVariance, gap, gp.cost, nanos)
	case gp.boundary > risk.BoundaryMass:
		o.tierEscalate(TierEscLevelSet, gap, gp.cost, nanos)
	default:
		return o.tierServe(gp, TierLowRisk, gap, nanos), true
	}
	return nil, false
}

// tierServe builds the served greedy Result and records the tier outcome.
func (o *Optimizer) tierServe(gp tierPlan, reason string, gap float64, nanos int64) *Result {
	o.tier = tierState{tier: TierNameGreedy, reason: reason, gap: gap, greedyCost: gp.cost, greedyNanos: nanos}
	o.ctx.Count.TierGreedyServed++
	return &Result{
		Plan:       gp.node,
		Cost:       gp.cost,
		Count:      o.ctx.snapshotCount(),
		Tier:       TierNameGreedy,
		TierReason: reason,
		TierGap:    gap,
	}
}

// tierEscalate records an escalation to the DP and starts its clock.
func (o *Optimizer) tierEscalate(reason string, gap, greedyCost float64, nanos int64) {
	o.tier = tierState{tier: TierNameDP, reason: reason, gap: gap, greedyCost: greedyCost, greedyNanos: nanos, dpStart: time.Now()}
	o.ctx.Count.TierEscalations++
	// The DP sweeps the full lattice: migrate any probe-phase memo entries
	// back into the dense layout the sizing chose.
	o.ctx.endSizeProbe()
}

// stampTier copies the gate's outcome onto the Result and records the
// tier metrics. Runs with Options.Tier == TierDP leave o.tier zero and this
// is a no-op. Called from OptimizeCtx's epilogue, before flushMetrics so the
// TierGreedyServed/TierEscalations counter deltas flush in the same run.
func (o *Optimizer) stampTier(res *Result) {
	t := o.tier
	if t.tier == "" {
		return
	}
	if res != nil && res.Tier == "" {
		res.Tier, res.TierReason, res.TierGap = t.tier, t.reason, t.gap
	}
	m := o.ctx.metrics
	if m == nil || m.Tier == nil {
		return
	}
	tm := m.Tier
	if t.greedyNanos > 0 {
		tm.GreedySeconds.Observe(float64(t.greedyNanos) / 1e9)
	}
	if t.tier != TierNameDP {
		return
	}
	tm.DPSeconds.Observe(time.Since(t.dpStart).Seconds())
	switch t.reason {
	case TierForced:
		tm.EscalationForced.Inc()
	case TierEscGap:
		tm.EscalationGap.Inc()
	case TierEscVariance:
		tm.EscalationVariance.Inc()
	case TierEscLevelSet:
		tm.EscalationLevelSet.Inc()
	case TierEscObjective:
		tm.EscalationObjective.Inc()
	case TierEscFault:
		tm.EscalationFault.Inc()
	case TierEscUnplannable:
		tm.EscalationUnplannable.Inc()
	}
	if res != nil && !math.IsNaN(t.greedyCost) && !math.IsInf(t.greedyCost, 0) &&
		res.Cost > 0 && !math.IsInf(res.Cost, 0) {
		regret := t.greedyCost/res.Cost - 1
		if regret < 0 {
			regret = 0
		}
		tm.Regret.Observe(regret)
	}
}

// tierGreedyGuarded runs the greedy tier planner under its own recover: a
// panic (a broken coster, or the tier/greedy fault-injection site) becomes
// an errTierFault escalation instead of unwinding the request.
func (o *Optimizer) tierGreedyGuarded(phases []*stats.Dist, risk TierRisk) (gp tierPlan, err error) {
	defer func() {
		if p := recover(); p != nil {
			o.ctx.Count.PanicsRecovered++
			gp, err = tierPlan{}, fmt.Errorf("%w: recovered panic: %v", errTierFault, p)
		}
	}()
	return o.tierGreedy(phases, risk)
}

// tierGreedy is the rung-zero planner: greedyPlan behind the tier's own
// guards — the tier/greedy fault-injection site and the request-context
// check. The fail-soft ladder's terminal rung calls greedyPlan directly,
// since it must not fail on the faults that sent the run down the ladder.
func (o *Optimizer) tierGreedy(phases []*stats.Dist, risk TierRisk) (tierPlan, error) {
	switch faultinject.Check(faultinject.TierGreedy) {
	case faultinject.KindNaN, faultinject.KindInf, faultinject.KindDrop:
		return tierPlan{}, fmt.Errorf("%w: injected non-finite plan score", errTierFault)
	}
	// A stall above may have outlived the request deadline; planning a stale
	// request wastes the DP's remaining budget, so bail to the ladder now.
	if ctx := o.ctx; ctx.reqCtx != nil {
		if cerr := ctx.reqCtx.Err(); cerr != nil {
			return tierPlan{}, fmt.Errorf("%w: %v", errTierFault, cerr)
		}
	}
	return o.greedyPlan(phases, risk)
}

// greedyPlan is the engine's one greedy planner: left-deep join ordering by
// minimum expected output cardinality over the join graph, with each step's
// method chosen by minimum expected join cost under that phase's memory
// distribution. It prices with cost.JoinCost/SortCost directly, never the
// configured pricer or a fault-injection site. It is allocation-light — the
// only allocations are the plan nodes themselves (interned in the session
// arena) and the subset-size memo entries — and O(n²·|methods|·|support|)
// work, which keeps chain/star n=20 plans under 100µs.
//
// The returned cost equals plan.ExpCostPhased(node, phases) by linearity of
// expectation: scans are priced at AccessCost, join k in expectation over
// phases[k], and the final sort (if any) over the last join's phase.
func (o *Optimizer) greedyPlan(phases []*stats.Dist, risk TierRisk) (tierPlan, error) {
	ctx := o.ctx
	n := ctx.Q.NumRels()
	if n == 0 {
		return tierPlan{}, fmt.Errorf("opt: empty query")
	}

	// Start at the smallest filtered relation — the standard min-cardinality
	// opening, and for star queries the hub's cheapest partner.
	start := 0
	for i := 1; i < n; i++ {
		if ctx.baseRows[i] < ctx.baseRows[start] {
			start = i
		}
	}
	var cur plan.Node = ctx.BestScan(start)
	used := query.NewRelSet(start)
	gp := tierPlan{cost: ctx.BestScan(start).AccessCost()}

	for used.Len() < n {
		// Candidate choice: among admissible extensions, prefer relations
		// connected to the current subset (no cross joins while any
		// predicate-connected extension exists), and among those take the
		// minimum expected joint cardinality.
		bestJ, bestConn := -1, false
		bestRows := math.Inf(1)
		for j := 0; j < n; j++ {
			if used.Has(j) || !ctx.extensionAllowed(used, j) {
				continue
			}
			conn := ctx.conn[j]&used != 0
			if bestJ >= 0 && bestConn && !conn {
				continue
			}
			rows := ctx.SubsetRows(used.Add(j))
			if bestJ < 0 || (conn && !bestConn) || rows < bestRows {
				bestJ, bestConn, bestRows = j, conn, rows
			}
		}
		if bestJ < 0 {
			return tierPlan{}, fmt.Errorf("opt: greedy tier found no admissible extension of %v", used)
		}

		scan := ctx.BestScan(bestJ)
		d := tierDistAt(phases, used.Len()-1)
		leftPages, rightPages := cur.OutPages(), scan.OutPages()
		bestM, bestMean, bestVar := cost.Method(0), math.Inf(1), 0.0
		for _, m := range ctx.Opts.Methods {
			mean, meanSq := 0.0, 0.0
			for i := 0; i < d.Len(); i++ {
				c := cost.JoinCost(m, leftPages, rightPages, d.Value(i))
				p := d.Prob(i)
				mean += p * c
				meanSq += p * c * c
			}
			ctx.Count.CostEvals++
			if math.IsNaN(mean) || math.IsInf(mean, 0) {
				ctx.Count.NonFiniteCosts++
				continue
			}
			if mean < bestMean {
				bestM, bestMean = m, mean
				if v := meanSq - mean*mean; v > 0 {
					bestVar = v
				} else {
					bestVar = 0
				}
			}
		}
		if math.IsInf(bestMean, 1) {
			return tierPlan{}, fmt.Errorf("%w: every join method's expected cost was non-finite", errTierFault)
		}
		if mass := tierBoundaryMass(d, cost.MemBreakpoints(bestM, leftPages, rightPages), risk.BoundaryMargin); mass > gp.boundary {
			gp.boundary = mass
		}
		s := used.Add(bestJ)
		cur = ctx.NewJoin(cur, scan, bestM, s, bestJ)
		used = s
		gp.cost += scan.AccessCost() + bestMean
		gp.variance += bestVar
	}

	finished, added := ctx.FinishPlan(cur)
	if added {
		d := tierDistAt(phases, n-2)
		pages := cur.OutPages()
		mean, meanSq := 0.0, 0.0
		for i := 0; i < d.Len(); i++ {
			c := cost.SortCost(pages, d.Value(i))
			p := d.Prob(i)
			mean += p * c
			meanSq += p * c * c
		}
		ctx.Count.CostEvals++
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			return tierPlan{}, fmt.Errorf("%w: expected sort cost was non-finite", errTierFault)
		}
		gp.cost += mean
		if v := meanSq - mean*mean; v > 0 {
			gp.variance += v
		}
		if mass := tierBoundaryMass(d, cost.SortMemBreakpoints(pages), risk.BoundaryMargin); mass > gp.boundary {
			gp.boundary = mass
		}
	}
	gp.node = finished
	if math.IsNaN(gp.cost) || math.IsInf(gp.cost, 0) {
		return tierPlan{}, fmt.Errorf("%w: plan score was non-finite", errTierFault)
	}
	return gp, nil
}

// tierBoundaryMass sums the probability mass of support points within a
// relative margin of any cost level-set boundary — the §3.7 observation run
// in reverse: mass near a breakpoint means the step's cost is effectively a
// coin flip, exactly where a point estimate (and hence a greedy commitment)
// is least trustworthy.
func tierBoundaryMass(d *stats.Dist, bps []float64, margin float64) float64 {
	if len(bps) == 0 || margin <= 0 {
		return 0
	}
	mass := 0.0
	for i := 0; i < d.Len(); i++ {
		v := d.Value(i)
		for _, bp := range bps {
			if bp <= 0 {
				continue
			}
			if math.Abs(v-bp) <= margin*bp {
				mass += d.Prob(i)
				break
			}
		}
	}
	return mass
}

// tierLowerBound returns an admissible lower bound on the expected cost of
// ANY plan in the configured space: every relation must be scanned at least
// once (at its cheapest access path), and in the left-deep and pipelined
// spaces every relation except one enters as the fresh inner of exactly one
// join, whose cost is floored per method:
//
//   - sort-merge ≥ smFactor(b, memHi)·b — the factor is non-increasing in
//     memory and non-decreasing in the larger input, and a+b ≥ b;
//   - grace-hash ≥ 2·b — the pass factor is at least 2;
//   - block-nested-loop ≥ b — the inner is read at least once;
//   - nested-loop ≥ b only when every memory support point is ≥ 3 pages:
//     with mem ≥ 3 the quadratic branch requires min(a,b) > mem−2 ≥ 1, so
//     a + a·b > b; with smaller memory a sub-page outer can make a + a·b
//     arbitrarily small, so the floor degrades to 0.
//
// The a=0 evaluations of JoinCost compute the first three floors exactly.
// The bushy space admits plans where a relation never meets a fresh scan
// (both join inputs composite), so it keeps only the scan terms — a weaker
// bound that makes TierAuto escalate on anything non-trivial, which is the
// conservative behavior we want there. Sorts and aggregations only add cost.
func (o *Optimizer) tierLowerBound(phases []*stats.Dist) float64 {
	ctx := o.ctx
	n := ctx.Q.NumRels()
	lb := 0.0
	for i := 0; i < n; i++ {
		lb += ctx.BestScan(i).AccessCost()
	}
	if n < 2 || o.cfg.Space == SpaceBushy {
		return lb
	}
	memHi, memLo := 1.0, math.Inf(1)
	for _, d := range phases {
		if v := d.Max(); v > memHi {
			memHi = v
		}
		if v := d.Min(); v < memLo {
			memLo = v
		}
	}
	if memLo < 1 {
		memLo = 1 // JoinCost clamps mem below one page
	}
	floors := make([]float64, n)
	for j := 0; j < n; j++ {
		b := ctx.basePages[j]
		f := math.Inf(1)
		for _, m := range ctx.Opts.Methods {
			var mf float64
			if m == cost.NestedLoop {
				if memLo >= 3 {
					mf = b
				} else {
					mf = 0
				}
			} else {
				mf = cost.JoinCost(m, 0, b, memHi)
			}
			if mf < f {
				f = mf
			}
		}
		floors[j] = f
	}
	sort.Float64s(floors)
	for _, f := range floors[:n-1] {
		lb += f
	}
	return lb
}

// TieredCtx optimizes q with the greedy fast path armed (Options.Tier is
// forced to TierAuto unless already set): the greedy tier serves when its
// risk signals clear the Options.TierRisk thresholds, and the run escalates
// to Algorithm C's static-distribution DP otherwise. The Result's Tier /
// TierReason / TierGap fields report which tier answered and why.
func TieredCtx(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	if opts.Tier == TierDP {
		opts.Tier = TierAuto
	}
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		return nil, err
	}
	return eng.OptimizeCtx(rc)
}

// Tiered is TieredCtx under a background context.
func Tiered(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	return TieredCtx(context.Background(), cat, q, opts, dm)
}
