package opt

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file is the engine's tiered-planning layer: a sub-100µs greedy
// join-ordering planner as rung zero of the optimizer, with a gap-triggered
// escalation to the full LEC dynamic program. It is the degradation ladder
// of failsoft.go run in reverse: instead of starting with the DP and falling
// back to greedy under pressure, the tier controller starts with greedy and
// climbs to the DP only when the greedy plan's expected cost is not provably
// within DefaultTierMaxGap of the optimum. That bound is the gate's one
// rule: LEC minimizes expected cost, so the only guarantee worth serving is
// one on expected cost (risk-averse objectives have no greedy scoring and
// escalate with reason "objective").
//
// The gap is checked against a bound that tightens as the left-deep DP
// climbs. Before the DP, LB_1 is the cheapest access path of every relation
// plus the n−1 smallest per-relation join floors. Once DP level k is
// complete,
//
//	LB_k = min over |S|=k of [ OPT(S) + Σ_{j∉S} (scan_j + floor_j) ]
//
// is admissible too: every left-deep plan has exactly one k-relation
// prefix, occupying join phases 0..k−2 exactly as the DP priced OPT(S), and
// every relation outside it is scanned once and joined once as a fresh
// inner. A left-deep greedy plan that fails the LB_1 check arms a
// certificate; runLeftDeep serves it with reason "certified" at the first
// complete level where greedy ≤ (1+DefaultTierMaxGap)·LB_k, and otherwise
// the DP finishes as usual.
//
// The greedy planner prices steps with the same expected-cost arithmetic as
// plan.ExpCostPhased (sums over the phase distribution's support), so a
// served greedy plan's Result.Cost is exactly what re-scoring the plan under
// the active coster would report: the gap bound G ≤ (1+DefaultTierMaxGap)·LB
// ≤ (1+DefaultTierMaxGap)·OPT is a real guarantee, not an estimate of one.

// Tier selects the tiered-planning mode. The zero value (TierDP) runs the
// configured DP search unconditionally — existing behavior. The ordering is
// deliberate: a larger Tier is a cheaper planning mode, which is what lets
// serve's pressure ladder force tiers with a max.
type Tier int

// Tiered-planning modes.
const (
	// TierDP always runs the configured DP search (the default).
	TierDP Tier = iota
	// TierAuto serves the greedy tier when its plan is provably within
	// DefaultTierMaxGap of the optimum and escalates to the DP otherwise.
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

// DefaultTierMaxGap bounds the relative expected-cost gap of a greedy plan
// TierAuto serves: greedy ≤ (1+DefaultTierMaxGap)·LB, for LB the gate's LB_1
// or the LB_k of a complete left-deep DP level, which implies greedy ≤
// (1+DefaultTierMaxGap)·OPT.
const DefaultTierMaxGap = 0.02

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
	// TierLowRisk: the greedy plan's gap against LB_1 was within
	// DefaultTierMaxGap.
	TierLowRisk = "low-risk"
	// TierForced: the tier was pinned by configuration (TierGreedy).
	TierForced = "forced"
	// TierCertified: the greedy plan failed the gap check against LB_1, but
	// a complete left-deep DP level's LB_k cleared it, so the DP stopped
	// there.
	TierCertified = "certified"
	// TierEscGap: no lower bound brought the greedy plan's expected-cost gap
	// within DefaultTierMaxGap.
	TierEscGap = "gap"
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
	node plan.Node
	cost float64 // expected total cost under the phase distributions
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

// tierCert is the gap certificate a greedy plan carries into the left-deep
// DP when it failed the LB_1 gap check: the plan and the per-relation
// weights w_j = scan_j + floor_j that turn a complete level into LB_k. armed
// is cleared when a level certifies the plan or when the run ends on the DP.
type tierCert struct {
	armed   bool
	gp      tierPlan
	weights []float64
}

// tierGate is the tier controller, invoked at the top of optimizeCtxInner
// when Options.Tier is TierAuto or TierGreedy. It returns (result, true)
// when the greedy tier serves; otherwise it records the escalation on
// o.tier and returns (nil, false) so the DP runs. A left-deep plan that
// fails the LB_1 gap check arms o.cert instead, and the DP may still serve
// it (runLeftDeep, tierCertify).
func (o *Optimizer) tierGate() (*Result, bool) {
	ctx := o.ctx

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
	gp, err := o.tierGreedyGuarded(phases)
	nanos := time.Since(t0).Nanoseconds()
	if err != nil {
		reason := TierEscUnplannable
		if errors.Is(err, errTierFault) {
			reason = TierEscFault
		}
		o.tierEscalate(reason, math.NaN(), math.NaN(), nanos)
		return nil, false
	}

	weights := o.tierWeights(phases)
	gap := tierGapOf(gp.cost, o.tierLowerBound(weights))

	if ctx.Opts.Tier == TierGreedy {
		return o.tierServe(gp, TierForced, gap, nanos), true
	}
	switch {
	case gap <= DefaultTierMaxGap:
		return o.tierServe(gp, TierLowRisk, gap, nanos), true
	case gap > DefaultTierMaxGap && o.cfg.Space == SpaceLeftDeep:
		// Let the DP's complete levels try to certify the plan. Until one
		// does, the run is a gap escalation.
		o.tier = tierState{tier: TierNameDP, reason: TierEscGap, gap: gap, greedyCost: gp.cost, greedyNanos: nanos, dpStart: time.Now()}
		o.cert = tierCert{armed: true, gp: gp, weights: weights}
	default: // a NaN gap, or a space LB_k does not cover
		o.tierEscalate(TierEscGap, gap, gp.cost, nanos)
	}
	return nil, false
}

// tierGapOf returns greedy/lb − 1, +Inf when a positive cost meets a zero
// bound, and 0 when both are zero.
func tierGapOf(greedy, lb float64) float64 {
	switch {
	case lb > 0:
		return greedy/lb - 1
	case greedy > 0:
		return math.Inf(1)
	}
	return 0
}

// clears reports whether a lower bound certifies the greedy plan:
// greedy ≤ (1+DefaultTierMaxGap)·lb.
func (c *tierCert) clears(lb float64) bool { return tierGapOf(c.gp.cost, lb) <= DefaultTierMaxGap }

// tierCertify closes a complete DP level below n. open reports that no
// subset of the level pulled its running LB_k below the certificate (the
// walk stops tracking once one does), and lb is that LB_k: the greedy plan
// is served when the level stayed open; otherwise it returns nil and the
// DP climbs on. A run that has discarded non-finite candidates certifies
// nothing: a subset whose every candidate was poisoned has no entry, and
// LB_k would skip it.
func (o *Optimizer) tierCertify(open bool, lb float64) *Result {
	if open && !math.IsInf(lb, 1) && !o.ctx.sawNonFinite() {
		gp := o.cert.gp
		o.cert = tierCert{}
		return o.tierServe(gp, TierCertified, tierGapOf(gp.cost, lb), o.tier.greedyNanos)
	}
	return nil
}

// tierEndDP closes a certificate that no DP level cleared: the run ended on
// the DP, so it counts as the gap escalation tierGate recorded.
func (o *Optimizer) tierEndDP(res *Result) {
	if !o.cert.armed {
		return
	}
	o.cert = tierCert{}
	o.ctx.Count.TierEscalations++
	if res != nil {
		res.Count = o.ctx.snapshotCount()
	}
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
}

// stampTier copies the gate's outcome onto the Result and records the
// tier metrics. Runs with Options.Tier == TierDP leave o.tier zero and this
// is a no-op. Called from OptimizeCtx's epilogue, before flushMetrics so the
// TierGreedyServed/TierEscalations counter deltas flush in the same run.
// A greedy ladder rung's TierGap, checked against a complete DP level, is
// kept over the gate's LB_1 gap.
func (o *Optimizer) stampTier(res *Result) {
	t := o.tier
	if t.tier == "" {
		return
	}
	if res != nil && res.Tier == "" {
		res.Tier, res.TierReason = t.tier, t.reason
		if res.TierGap == 0 {
			res.TierGap = t.gap
		}
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
	case TierEscGap:
		tm.EscalationGap.Inc()
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
func (o *Optimizer) tierGreedyGuarded(phases []*stats.Dist) (gp tierPlan, err error) {
	defer func() {
		if p := recover(); p != nil {
			o.ctx.Count.PanicsRecovered++
			gp, err = tierPlan{}, fmt.Errorf("%w: recovered panic: %v", errTierFault, p)
		}
	}()
	return o.tierGreedy(phases)
}

// tierGreedy is the rung-zero planner: greedyPlan behind the tier's own
// guards — the tier/greedy fault-injection site and the request-context
// check. The fail-soft ladder's terminal rung calls greedyPlan directly,
// since it must not fail on the faults that sent the run down the ladder.
func (o *Optimizer) tierGreedy(phases []*stats.Dist) (tierPlan, error) {
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
	return o.greedyPlan(phases)
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
func (o *Optimizer) greedyPlan(phases []*stats.Dist) (tierPlan, error) {
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
		bestM, bestMean := cost.Method(0), math.Inf(1)
		for _, m := range ctx.Opts.Methods {
			mean := 0.0
			for i := 0; i < d.Len(); i++ {
				mean += d.Prob(i) * cost.JoinCost(m, leftPages, rightPages, d.Value(i))
			}
			ctx.Count.CostEvals++
			if math.IsNaN(mean) || math.IsInf(mean, 0) {
				ctx.Count.NonFiniteCosts++
				continue
			}
			if mean < bestMean {
				bestM, bestMean = m, mean
			}
		}
		if math.IsInf(bestMean, 1) {
			return tierPlan{}, fmt.Errorf("%w: every join method's expected cost was non-finite", errTierFault)
		}
		s := used.Add(bestJ)
		cur = ctx.NewJoin(cur, scan, bestM, s, bestJ)
		used = s
		gp.cost += scan.AccessCost() + bestMean
	}

	finished, added := ctx.FinishPlan(cur)
	if added {
		d := tierDistAt(phases, n-2)
		pages := cur.OutPages()
		mean := 0.0
		for i := 0; i < d.Len(); i++ {
			mean += d.Prob(i) * cost.SortCost(pages, d.Value(i))
		}
		ctx.Count.CostEvals++
		if math.IsNaN(mean) || math.IsInf(mean, 0) {
			return tierPlan{}, fmt.Errorf("%w: expected sort cost was non-finite", errTierFault)
		}
		gp.cost += mean
	}
	gp.node = finished
	if math.IsNaN(gp.cost) || math.IsInf(gp.cost, 0) {
		return tierPlan{}, fmt.Errorf("%w: plan score was non-finite", errTierFault)
	}
	return gp, nil
}

// tierWeights returns each relation's share of the lower bounds: w_j =
// scan_j + floor_j, the least relation j adds to a left-deep or pipelined
// plan that does not start with it. It is scanned at least once (at its
// cheapest access path), and it enters exactly one join as the fresh
// inner, whose cost is floored per method:
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
// The a=0 evaluations of JoinCost compute the first three floors exactly,
// at the most favourable memory of any phase. The bushy space admits plans
// where a relation never meets a fresh scan (both join inputs composite),
// so there the floor is 0 and only the scan terms remain — a weaker bound
// that makes TierAuto escalate on anything non-trivial, which is the
// conservative behavior we want there. Sorts and aggregations only add
// cost.
func (o *Optimizer) tierWeights(phases []*stats.Dist) []float64 {
	ctx := o.ctx
	n := ctx.Q.NumRels()
	w := make([]float64, n)
	for j := range w {
		w[j] = ctx.BestScan(j).AccessCost()
	}
	if o.cfg.Space == SpaceBushy {
		return w
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
	for j := range w {
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
		w[j] += f
	}
	return w
}

// restBound returns Σ_{j∉s} w_j: the least the relations outside a prefix s
// add to any plan that extends it.
func restBound(w []float64, s query.RelSet) float64 {
	lb := 0.0
	for t := query.FullSet(len(w)) &^ s; t != 0; t &= t - 1 {
		lb += w[bits.TrailingZeros32(uint32(t))]
	}
	return lb
}

// tierLowerBound returns LB_1, an admissible lower bound on the expected
// cost of ANY plan in the configured space: min over the first relation j
// of scan_j + Σ_{i≠j} w_i — every relation's cheapest access path plus the
// n−1 smallest join floors.
func (o *Optimizer) tierLowerBound(w []float64) float64 {
	lb := math.Inf(1)
	for j := range w {
		if b := o.ctx.BestScan(j).AccessCost() + restBound(w, query.NewRelSet(j)); b < lb {
			lb = b
		}
	}
	return lb
}

// levelBound returns LB_k over the complete level k of a left-deep DP
// table: min over the level's solved subsets S of OPT(S) + restBound(S).
// Level 1 holds the access paths, so levelBound(tab, 1, w) is LB_1.
func (o *Optimizer) levelBound(tab *subsetTab[dpEntry], k int, w []float64) float64 {
	lb := math.Inf(1)
	o.ctx.levelSubsets(k, func(s query.RelSet) {
		if e := tab.get(s); e.node != nil {
			if b := e.cost + restBound(w, s); b < lb {
				lb = b
			}
		}
	})
	return lb
}

// checkedBound returns LB_k of an interrupted left-deep walk's last
// complete level k, for the greedy ladder rung to report its gap against,
// or 0 when the run has no such bound: the risk objectives and the
// multi-parameter coster price DP entries in other units than the greedy
// plan's expected cost, and a run that discarded non-finite candidates may
// be missing entries.
func (o *Optimizer) checkedBound(tab *subsetTab[dpEntry], k int) float64 {
	if _, ok := o.cfg.objective().(ExpectedCost); !ok || o.ctx.sawNonFinite() {
		return 0
	}
	if _, multi := o.cfg.Coster.(MultiParams); multi {
		return 0
	}
	w := o.cert.weights
	if w == nil {
		w = o.tierWeights(o.phaseDists())
	}
	if lb := o.levelBound(tab, k, w); !math.IsInf(lb, 1) {
		return lb
	}
	return 0
}

// Tiered optimizes q with the greedy fast path armed (Options.Tier is
// forced to TierAuto unless already set): the greedy tier serves when its
// plan is provably within DefaultTierMaxGap of the optimum, and the run
// escalates to Algorithm C's static-distribution DP otherwise. The Result's Tier /
// TierReason / TierGap fields report which tier answered and why.
func Tiered(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	if opts.Tier == TierDP {
		opts.Tier = TierAuto
	}
	return runConfig(cat, q, opts, Config{Coster: StaticParams{Mem: dm}})
}
