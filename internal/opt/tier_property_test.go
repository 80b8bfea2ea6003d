package opt

// Property tests for the tiered-planning controller (tier.go). The
// load-bearing claims:
//
//   - the greedy tier's plans are always structurally valid, cover every
//     relation exactly once, and are cross-join-free whenever the join
//     graph is connected — on every topology, plan space, and coster;
//   - the served greedy cost is exactly what re-scoring the plan under the
//     active phase distributions reports (the gap guarantee is computed on
//     real numbers, not estimates);
//   - whenever TierAuto *serves* the greedy plan, its true expected cost is
//     within the (1+DefaultTierMaxGap) factor of the DP optimum — the
//     admissible-lower-bound argument made checkable;
//   - TierAuto serves exactly when a lower bound clears that factor, and
//     otherwise escalates with a typed reason to a DP result identical to a
//     plain TierDP run;
//   - a seeded adversarial instance with probability mass straddling the
//     chosen method's cost level-set boundary must escalate;
//   - every complete left-deep DP level's bound LB_k is admissible and the
//     bounds climb with k, so a plan served with reason "certified" is
//     within (1+DefaultTierMaxGap) of the optimum too;
//   - the certificate leaves Tier: dp runs' effort counters untouched, and
//     an interrupted DP's greedy rung reports its gap against the last
//     complete level.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tierShapes is the topology rotation the random-graph grid cycles through.
var tierShapes = []workload.Topology{
	workload.Chain, workload.Star, workload.Clique, workload.RandomTree, workload.Cycle,
}

// tierCosters is the coster rotation (expected-cost objective only — the
// risk objectives escalate by design and are covered separately). maxN is
// the largest query size the config's DP reference can afford in a property
// grid: the left-deep lattice is 2^n, the bushy DP adds a 3^n split loop,
// and the pipelined space enumerates left-deep orders without memoization —
// factorial, so it stays tiny.
func tierCosters(dm *stats.Dist) []struct {
	cfg  Config
	maxN int
} {
	phases := []*stats.Dist{
		stats.MustNew([]float64{300, 2500}, []float64{0.5, 0.5}),
		dm,
		stats.MustNew([]float64{80, 900, 6000}, []float64{0.2, 0.5, 0.3}),
	}
	return []struct {
		cfg  Config
		maxN int
	}{
		{Config{Coster: FixedParams{Mem: 900}}, 9},
		{Config{Coster: StaticParams{Mem: dm}}, 9},
		{Config{Coster: PhasedParams{Phases: phases}}, 9},
		{Config{Space: SpaceBushy, Coster: StaticParams{Mem: dm}}, 7},
		{Config{Space: SpacePipelined, Coster: StaticParams{Mem: dm}}, 5},
	}
}

// escalationReasons is the set of legal Result.TierReason values on a DP
// result produced by an escalated TierAuto run.
var escalationReasons = map[string]bool{
	TierEscGap:         true,
	TierEscObjective:   true,
	TierEscFault:       true,
	TierEscUnplannable: true,
}

// checkGreedyPlanShape validates one greedy-tier plan: structurally sound,
// covering all n relations exactly once, and (connected join graphs only,
// which every generated topology is) free of cross joins.
func checkGreedyPlanShape(t *testing.T, q *query.SPJ, p plan.Node) {
	t.Helper()
	if err := plan.Validate(p); err != nil {
		t.Fatalf("greedy plan invalid: %v", err)
	}
	n := q.NumRels()
	if got := p.Rels().Len(); got != n {
		t.Fatalf("greedy plan covers %d relations, want %d", got, n)
	}
	if !crossJoinFree(p) {
		t.Fatalf("greedy plan contains a cross join on a connected graph:\n%s", plan.Explain(p))
	}
}

// TestTierGreedyAlwaysValidRandomGraphs pins the tier (TierGreedy) across
// the full topology × space × coster grid and checks every served plan's
// shape, plus the serve invariants: tier "greedy", reason "forced", and a
// Result.Cost that equals re-scoring the plan under the engine's own phase
// distributions.
func TestTierGreedyAlwaysValidRandomGraphs(t *testing.T) {
	cases := 0
	for i := 0; i < 120; i++ {
		seed := int64(41000 + i)
		dm := randMemDist3(seed)
		costers := tierCosters(dm)
		cc := costers[i%len(costers)]
		n := 2 + i%(cc.maxN-1) // 2..maxN
		shape := tierShapes[i%len(tierShapes)]
		cat, q := randInstance(t, seed, n, shape, i%3 == 0)
		eng, err := NewOptimizer(cat, q, Options{Tier: TierGreedy}, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := eng.Optimize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Tier != TierNameGreedy || res.TierReason != TierForced {
			t.Fatalf("seed %d: pinned greedy served tier=%q reason=%q",
				seed, res.Tier, res.TierReason)
		}
		checkGreedyPlanShape(t, q, res.Plan)
		rescored := plan.ExpCostPhased(res.Plan, eng.phaseDists())
		if relDiff(res.Cost, rescored) > 1e-9 {
			t.Fatalf("seed %d: served cost %v != re-scored cost %v",
				seed, res.Cost, rescored)
		}
		cases++
	}
	t.Logf("%d pinned-greedy cases validated", cases)
}

// TestTierAutoGapBoundRandomGraphs runs the same grid under TierAuto and
// checks the controller's contract both ways: a served greedy plan's true
// expected cost is within (1+DefaultTierMaxGap) of the DP optimum, and an escalated
// run carries a typed reason and matches a plain TierDP run exactly.
func TestTierAutoGapBoundRandomGraphs(t *testing.T) {
	served, escalated := 0, 0
	for i := 0; i < 120; i++ {
		seed := int64(43000 + i)
		dm := randMemDist3(seed)
		costers := tierCosters(dm)
		cc := costers[i%len(costers)]
		n := 2 + i%(cc.maxN-1)
		shape := tierShapes[i%len(tierShapes)]
		cat, q := randInstance(t, seed, n, shape, i%3 == 1)
		auto, err := NewOptimizer(cat, q, Options{Tier: TierAuto}, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := auto.Optimize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dpEng, err := NewOptimizer(cat, q, Options{}, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dp, err := dpEng.Optimize()
		if err != nil {
			t.Fatalf("seed %d: DP reference: %v", seed, err)
		}
		switch res.Tier {
		case TierNameGreedy:
			served++
			if res.TierReason != TierLowRisk && res.TierReason != TierCertified {
				t.Fatalf("seed %d: served reason %q, want %q or %q", seed, res.TierReason, TierLowRisk, TierCertified)
			}
			checkGreedyPlanShape(t, q, res.Plan)
			trueCost := plan.ExpCostPhased(res.Plan, auto.phaseDists())
			bound := (1 + DefaultTierMaxGap) * dp.Cost * (1 + 1e-9)
			if trueCost > bound {
				t.Fatalf("seed %d shape %v n=%d: served greedy true cost %v exceeds (1+%.2f)·OPT = %v (OPT %v, reported gap %.3f)",
					seed, shape, n, trueCost, DefaultTierMaxGap, bound, dp.Cost, res.TierGap)
			}
		case TierNameDP:
			escalated++
			if !escalationReasons[res.TierReason] {
				t.Fatalf("seed %d: escalated with unknown reason %q", seed, res.TierReason)
			}
			if relDiff(res.Cost, dp.Cost) > costTol {
				t.Fatalf("seed %d: escalated DP cost %v != plain DP cost %v", seed, res.Cost, dp.Cost)
			}
		default:
			t.Fatalf("seed %d: result tier %q", seed, res.Tier)
		}
	}
	if served == 0 {
		t.Error("TierAuto never served the greedy tier across the whole grid; the fast path is dead")
	}
	if escalated == 0 {
		t.Error("TierAuto never escalated across the whole grid; the gap gate is dead")
	}
	t.Logf("%d served greedy, %d escalated to the DP", served, escalated)
}

// TestTierAutoEscalatesOnRiskObjectives: the certainty-equivalent and
// variance-penalized objectives have no greedy scoring, so TierAuto must
// escalate with the "objective" reason (and still return the DP optimum).
func TestTierAutoEscalatesOnRiskObjectives(t *testing.T) {
	cat, q, dm := workload.Example11()
	for _, obj := range []Objective{ExponentialUtility{Gamma: 1e-6}, VariancePenalized{Lambda: 0.1}} {
		eng, err := NewOptimizer(cat, q, Options{Tier: TierAuto},
			Config{Coster: StaticParams{Mem: dm}, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier != TierNameDP || res.TierReason != TierEscObjective {
			t.Errorf("%T: tier=%q reason=%q, want dp/objective", obj, res.Tier, res.TierReason)
		}
	}
}

// adversarialLevelSetInstance builds the seeded adversarial case: a
// two-relation join with a skewed selectivity whose best join method is
// grace hash, under a memory distribution that puts all its probability
// mass within the boundary margin of the method's √(min(a,b)) level-set
// breakpoint — so the step's realized cost is a coin flip between the 2×
// and 4× pass factors. The greedy point commitment is exactly the plan the
// paper's level-set analysis (§3.7) says not to trust.
func adversarialLevelSetInstance() (*catalog.Catalog, *query.SPJ, *stats.Dist) {
	const (
		pagesA      = 10_000.0 // min(a,b): breakpoint at √10000 = 100 pages
		pagesB      = 100_000.0
		rowsPerPage = 10.0
	)
	rowsA, rowsB := pagesA*rowsPerPage, pagesB*rowsPerPage
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "S", Rows: int64(rowsA), Pages: pagesA,
		Columns: []*catalog.Column{{Name: "k", Distinct: int64(rowsA), Min: 1, Max: rowsA}},
	})
	cat.MustAdd(&catalog.Table{
		Name: "L", Rows: int64(rowsB), Pages: pagesB,
		Columns: []*catalog.Column{{Name: "k", Distinct: int64(rowsB), Min: 1, Max: rowsB}},
	})
	q := &query.SPJ{
		Tables: []string{"S", "L"},
		Joins: []query.JoinPred{{
			Left:        query.ColumnRef{Table: "S", Column: "k"},
			Right:       query.ColumnRef{Table: "L", Column: "k"},
			Selectivity: 1e-8, // skewed: far below the 1/max(distinct) uniform estimate
		}},
	}
	// Both support points within 10% of the 100-page breakpoint: grace
	// hash pays the 4× factor at 95 and the 2× factor at 105.
	dm := stats.MustNew([]float64{95, 105}, []float64{0.5, 0.5})
	return cat, q, dm
}

// TestTierAdversarialLevelSetMustEscalate: the seeded adversarial instance
// must never be served greedily. Its greedy plan's gap against every lower
// bound exceeds DefaultTierMaxGap, so it escalates on the gap.
func TestTierAdversarialLevelSetMustEscalate(t *testing.T) {
	cat, q, dm := adversarialLevelSetInstance()
	eng, err := NewOptimizer(cat, q, Options{Tier: TierAuto}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierNameDP || res.TierReason != TierEscGap {
		t.Fatalf("adversarial case: tier=%q reason=%q, want dp/%s", res.Tier, res.TierReason, TierEscGap)
	}
}

// TestTierLowerBoundAdmissible: across the random grid, the lower bound
// never exceeds the DP optimum — the inequality the gap guarantee stands on.
func TestTierLowerBoundAdmissible(t *testing.T) {
	for i := 0; i < 80; i++ {
		seed := int64(47000 + i)
		dm := randMemDist3(seed)
		costers := tierCosters(dm)
		cc := costers[i%len(costers)]
		n := 2 + i%(cc.maxN-1)
		shape := tierShapes[i%len(tierShapes)]
		cat, q := randInstance(t, seed, n, shape, i%4 == 0)
		eng, err := NewOptimizer(cat, q, Options{}, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := eng.Optimize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lb := eng.tierLowerBound(eng.tierWeights(eng.phaseDists()))
		if math.IsNaN(lb) || math.IsInf(lb, 0) {
			t.Fatalf("seed %d: non-finite lower bound %v", seed, lb)
		}
		if lb > res.Cost*(1+1e-9) {
			t.Fatalf("seed %d shape %v n=%d: lower bound %v exceeds DP optimum %v — not admissible",
				seed, shape, n, lb, res.Cost)
		}
	}
}

// levelBoundConfigs is the left-deep grid the LB_k properties run over:
// the static and phased costers, both enumerators, with and without ORDER
// BY (the orderBy flag alternates per instance).
func levelBoundConfigs(dm *stats.Dist) []struct {
	cfg  Config
	enum Enumeration
} {
	phases := []*stats.Dist{
		stats.MustNew([]float64{300, 2500}, []float64{0.5, 0.5}),
		dm,
		stats.MustNew([]float64{80, 900, 6000}, []float64{0.2, 0.5, 0.3}),
	}
	var out []struct {
		cfg  Config
		enum Enumeration
	}
	for _, c := range []Config{{Coster: StaticParams{Mem: dm}}, {Coster: PhasedParams{Phases: phases}}} {
		for _, e := range []Enumeration{EnumExhaustive, EnumConnected} {
			out = append(out, struct {
				cfg  Config
				enum Enumeration
			}{c, e})
		}
	}
	return out
}

// TestTierLevelBoundAdmissible: after a complete left-deep DP, LB_k over
// every level k is at most the optimum the same search returns, LB_1 is the
// gate's tierLowerBound, and the bounds never fall as k grows. Under
// EnumExhaustive the optimum is the exhaustive lattice's (and, for n ≤ 5,
// the brute-force oracle's); under EnumConnected it is the connected
// space's, which is the optimum a TierAuto run with that enumerator would
// otherwise return.
func TestTierLevelBoundAdmissible(t *testing.T) {
	checked := 0
	for i := 0; i < 96; i++ {
		seed := int64(52000 + i)
		dm := randMemDist3(seed)
		cfgs := levelBoundConfigs(dm)
		cc := cfgs[i%len(cfgs)]
		n := 2 + i%7 // 2..8
		shape := tierShapes[i%len(tierShapes)]
		cat, q := randInstance(t, seed, n, shape, i%2 == 0)
		eng, err := NewOptimizer(cat, q, Options{Enumeration: cc.enum}, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := eng.Optimize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		optimum := res.Cost
		if cc.enum == EnumExhaustive && n <= 5 {
			ex, err := ExhaustiveLECPhased(cat, q, Options{}, eng.phaseDists())
			if err != nil {
				t.Fatalf("seed %d: oracle: %v", seed, err)
			}
			if relDiff(ex.Cost, optimum) > costTol {
				t.Fatalf("seed %d: DP %v != oracle %v", seed, optimum, ex.Cost)
			}
		}
		w := eng.tierWeights(eng.phaseDists())
		if lb1, gate := eng.levelBound(&eng.dpt, 1, w), eng.tierLowerBound(w); lb1 != gate {
			t.Fatalf("seed %d: LB_1 from the DP table %v != gate bound %v", seed, lb1, gate)
		}
		prev := 0.0
		for k := 1; k <= n; k++ {
			lb := eng.levelBound(&eng.dpt, k, w)
			if math.IsNaN(lb) || math.IsInf(lb, 0) {
				t.Fatalf("seed %d k=%d: non-finite LB_k %v", seed, k, lb)
			}
			if lb > optimum*(1+1e-9) {
				t.Fatalf("seed %d %v n=%d enum=%v order=%v k=%d: LB_k %v exceeds OPT %v — not admissible",
					seed, shape, n, cc.enum, q.OrderBy != nil, k, lb, optimum)
			}
			if lb < prev*(1-1e-9) {
				t.Fatalf("seed %d k=%d: LB_k %v fell below LB_%d %v", seed, k, lb, k-1, prev)
			}
			prev = lb
			checked++
		}
	}
	t.Logf("%d level bounds checked", checked)
}

// TestTierCertifiedWithinGap runs TierAuto over the left-deep grid and
// checks every plan served through the certified path: its true expected
// cost is within (1+DefaultTierMaxGap) of the DP optimum, its reported gap
// is within DefaultTierMaxGap and at most the gate's LB_1 gap, and it never
// ran the DP's last level.
func TestTierCertifiedWithinGap(t *testing.T) {
	certified := 0
	for i := 0; i < 160; i++ {
		seed := int64(53000 + i)
		dm := randMemDist3(seed)
		cfgs := levelBoundConfigs(dm)
		cc := cfgs[i%len(cfgs)]
		n := 3 + i%6 // 3..8
		shape := tierShapes[i%len(tierShapes)]
		cat, q := randInstance(t, seed, n, shape, i%3 == 0)
		opts := Options{Tier: TierAuto, Enumeration: cc.enum}
		auto, err := NewOptimizer(cat, q, opts, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := auto.Optimize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.TierReason != TierCertified {
			continue
		}
		certified++
		opts.Tier = TierDP
		dpEng, err := NewOptimizer(cat, q, opts, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dp, err := dpEng.Optimize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkGreedyPlanShape(t, q, res.Plan)
		trueCost := plan.ExpCostPhased(res.Plan, auto.phaseDists())
		if relDiff(trueCost, res.Cost) > 1e-9 {
			t.Fatalf("seed %d: served cost %v != re-scored %v", seed, res.Cost, trueCost)
		}
		if bound := (1 + DefaultTierMaxGap) * dp.Cost * (1 + 1e-9); trueCost > bound {
			t.Fatalf("seed %d %v n=%d: certified plan costs %v, above (1+%.2f)·OPT = %v",
				seed, shape, n, trueCost, DefaultTierMaxGap, bound)
		}
		lb1Gap := res.Cost/auto.tierLowerBound(auto.tierWeights(auto.phaseDists())) - 1
		if res.TierGap > DefaultTierMaxGap || res.TierGap > lb1Gap {
			t.Fatalf("seed %d: certified gap %v, DefaultTierMaxGap %v, LB_1 gap %v", seed, res.TierGap, DefaultTierMaxGap, lb1Gap)
		}
		if res.Count.Subsets >= dp.Count.Subsets {
			t.Fatalf("seed %d: certified run visited %d subsets, the full DP %d", seed, res.Count.Subsets, dp.Count.Subsets)
		}
	}
	if certified == 0 {
		t.Fatal("no run was served through the certified path; the certificate is dead")
	}
	t.Logf("%d runs served certified", certified)
}

// TestTierAutoServesIffBoundClears pins the gate's rule against an oracle
// built from a plain DP run's table, over the random grids of
// TestTierAutoGapBoundRandomGraphs and TestTierCertifiedWithinGap, the
// mixed workload of the tier benchmarks, and lowRisk2 (no random instance
// clears LB_1). TierAuto
// must serve the greedy plan exactly when its gap against LB_1 is within
// DefaultTierMaxGap ("low-risk"), or, in the left-deep space of a run that
// priced no non-finite cost, against LB_{n−1}, the highest level the
// certificate checks ("certified"; the bounds climb with k, so LB_{n−1}
// clears whenever any lower level does). Every other run must escalate on
// the gap to exactly the DP's plan and cost.
func TestTierAutoServesIffBoundClears(t *testing.T) {
	type instance struct {
		seed    int64
		cat     *catalog.Catalog
		q       *query.SPJ
		opts    Options
		cfg     Config
		summary string
	}
	var grid []instance
	for i := 0; i < 120; i++ {
		seed := int64(43000 + i)
		cc := tierCosters(randMemDist3(seed))[i%5]
		n := 2 + i%(cc.maxN-1)
		cat, q := randInstance(t, seed, n, tierShapes[i%len(tierShapes)], i%3 == 1)
		grid = append(grid, instance{seed, cat, q, Options{}, cc.cfg, cc.cfg.Space.String()})
	}
	for i := 0; i < 160; i++ {
		seed := int64(53000 + i)
		cc := levelBoundConfigs(randMemDist3(seed))[i%4]
		cat, q := randInstance(t, seed, 3+i%6, tierShapes[i%len(tierShapes)], i%3 == 0)
		grid = append(grid, instance{seed, cat, q, Options{Enumeration: cc.enum}, cc.cfg, cc.enum.String()})
	}
	for k, in := range tierMixedWorkload(t) {
		grid = append(grid, instance{0, in.cat, in.q, Options{}, Config{Coster: StaticParams{Mem: tierBenchDist()}}, fmt.Sprintf("mixed[%d] %s", k, in.name)})
	}
	cat, q := lowRisk2()
	grid = append(grid, instance{0, cat, q, Options{}, Config{Coster: StaticParams{Mem: stats.Point(5000)}}, "lowrisk2"})

	served := map[string]int{}
	for _, in := range grid {
		run := func(tier Tier) (*Optimizer, *Result) {
			opts := in.opts
			opts.Tier = tier
			eng, err := NewOptimizer(in.cat, in.q, opts, in.cfg)
			if err != nil {
				t.Fatalf("seed %d: %v", in.seed, err)
			}
			res, err := eng.Optimize()
			if err != nil {
				t.Fatalf("seed %d tier %v: %v", in.seed, tier, err)
			}
			return eng, res
		}
		dpEng, dp := run(TierDP)
		_, greedy := run(TierGreedy)
		_, auto := run(TierAuto)

		n := in.q.NumRels()
		w := dpEng.tierWeights(dpEng.phaseDists())
		want := ""
		if tierGapOf(greedy.Cost, dpEng.tierLowerBound(w)) <= DefaultTierMaxGap {
			want = TierLowRisk
		} else if in.cfg.Space == SpaceLeftDeep && dp.Count.NonFiniteCosts == 0 && greedy.Count.NonFiniteCosts == 0 {
			if lb := dpEng.levelBound(&dpEng.dpt, n-1, w); !math.IsInf(lb, 1) && tierGapOf(greedy.Cost, lb) <= DefaultTierMaxGap {
				want = TierCertified
			}
		}

		if want != "" {
			if auto.Tier != TierNameGreedy || auto.TierReason != want {
				t.Errorf("seed %d %s n=%d: tier=%q reason=%q, want greedy/%s (greedy %v, OPT %v)",
					in.seed, in.summary, n, auto.Tier, auto.TierReason, want, greedy.Cost, dp.Cost)
				continue
			}
			if auto.Plan.Key() != greedy.Plan.Key() || math.Float64bits(auto.Cost) != math.Float64bits(greedy.Cost) {
				t.Fatalf("seed %d: served plan %s cost %v, want the greedy tier's %s cost %v",
					in.seed, auto.Plan.Key(), auto.Cost, greedy.Plan.Key(), greedy.Cost)
			}
			served[want]++
			continue
		}
		if auto.Tier != TierNameDP || auto.TierReason != TierEscGap {
			t.Errorf("seed %d %s n=%d: tier=%q reason=%q gap %v, want dp/%s (greedy %v, OPT %v)",
				in.seed, in.summary, n, auto.Tier, auto.TierReason, auto.TierGap, TierEscGap, greedy.Cost, dp.Cost)
			continue
		}
		if auto.Plan.Key() != dp.Plan.Key() || math.Float64bits(auto.Cost) != math.Float64bits(dp.Cost) {
			t.Fatalf("seed %d: escalated plan %s cost %v, want the DP's %s cost %v",
				in.seed, auto.Plan.Key(), auto.Cost, dp.Plan.Key(), dp.Cost)
		}
	}
	if served[TierLowRisk] == 0 || served[TierCertified] == 0 {
		t.Fatalf("served %v: both serve paths must be exercised", served)
	}
	t.Logf("%d instances: %d low-risk, %d certified, rest escalated on the gap",
		len(grid), served[TierLowRisk], served[TierCertified])
}

// tierDPCounterGrid sums the effort counters of TierDP runs over a
// left-deep grid (static/phased costers, both enumerators, ORDER BY on and
// off, n = 2..9).
func tierDPCounterGrid(t *testing.T) Counters {
	var total Counters
	for i := 0; i < 48; i++ {
		seed := int64(54000 + i)
		dm := randMemDist3(seed)
		cfgs := levelBoundConfigs(dm)
		cc := cfgs[i%len(cfgs)]
		cat, q := randInstance(t, seed, 2+i%8, tierShapes[i%len(tierShapes)], i%2 == 1)
		eng, err := NewOptimizer(cat, q, Options{Enumeration: cc.enum}, cc.cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := eng.Optimize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total.Add(res.Count)
	}
	return total
}

// TestTierDPCountersUnchanged pins the effort counters of plain TierDP runs
// to the totals recorded before the certificate and the lazily counted
// connected lattice existed: neither may change what a Tier: dp run does.
func TestTierDPCountersUnchanged(t *testing.T) {
	got := tierDPCounterGrid(t)
	want := tierDPCountersPinned
	if got != want {
		t.Fatalf("TierDP counters changed:\n got %+v\nwant %+v", got, want)
	}
}

// TestTierCertifiedCounters checks the provenance of one certified run and
// one escalated run: the certified run counts as greedy-served, not as an
// escalation, and records no DP latency or regret; the escalated run counts
// one gap escalation, one DP latency and one regret observation.
func TestTierCertifiedCounters(t *testing.T) {
	reg := obs.NewRegistry()
	m := obs.NewOptMetrics(reg)
	dm := stats.Point(5000)

	cat, q := certifiedChain3()
	eng, err := NewOptimizer(cat, q, Options{Tier: TierAuto, Metrics: m}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierNameGreedy || res.TierReason != TierCertified {
		t.Fatalf("chain3: tier=%q reason=%q, want greedy/%s", res.Tier, res.TierReason, TierCertified)
	}
	if lb1Gap := res.Cost/eng.tierLowerBound(eng.tierWeights(eng.phaseDists())) - 1; lb1Gap <= DefaultTierMaxGap || res.TierGap > DefaultTierMaxGap {
		t.Fatalf("chain3: LB_1 gap %v, certified gap %v; want LB_1 to fail and LB_2 to clear %v", lb1Gap, res.TierGap, DefaultTierMaxGap)
	}
	if res.Count.TierGreedyServed != 1 || res.Count.TierEscalations != 0 {
		t.Fatalf("chain3 counters: served %d, escalations %d; want 1, 0", res.Count.TierGreedyServed, res.Count.TierEscalations)
	}
	tm := m.Tier
	if tm.GreedyServed.Value() != 1 || tm.Escalations.Value() != 0 || tm.EscalationGap.Value() != 0 ||
		tm.DPSeconds.Count() != 0 || tm.Regret.Count() != 0 || tm.GreedySeconds.Count() != 1 {
		t.Fatalf("chain3 metrics: served %v escalations %v gap %v dp %d regret %d greedy %d",
			tm.GreedyServed.Value(), tm.Escalations.Value(), tm.EscalationGap.Value(),
			tm.DPSeconds.Count(), tm.Regret.Count(), tm.GreedySeconds.Count())
	}

	// Star seed 2 at n=10 fails the gap check at every level.
	escCat, escQ := randInstance(t, 2, 10, workload.Star, false)
	esc, err := NewOptimizer(escCat, escQ, Options{Tier: TierAuto, Metrics: m}, Config{Coster: StaticParams{Mem: tierBenchDist()}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = esc.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierNameDP || res.TierReason != TierEscGap {
		t.Fatalf("star10: tier=%q reason=%q, want dp/%s", res.Tier, res.TierReason, TierEscGap)
	}
	if res.Count.TierGreedyServed != 0 || res.Count.TierEscalations != 1 {
		t.Fatalf("star10 counters: served %d, escalations %d; want 0, 1", res.Count.TierGreedyServed, res.Count.TierEscalations)
	}
	if tm.GreedyServed.Value() != 1 || tm.Escalations.Value() != 1 || tm.EscalationGap.Value() != 1 ||
		tm.DPSeconds.Count() != 1 || tm.Regret.Count() != 1 || tm.GreedySeconds.Count() != 2 {
		t.Fatalf("after star10 metrics: served %v escalations %v gap %v dp %d regret %d greedy %d",
			tm.GreedyServed.Value(), tm.Escalations.Value(), tm.EscalationGap.Value(),
			tm.DPSeconds.Count(), tm.Regret.Count(), tm.GreedySeconds.Count())
	}
}

// certifiedChain3 is the three-relation chain of cmd/lecd's chain3 test
// catalog: c (filtered to 99 rows) joins b, then a. The first join's outer
// read escapes LB_1, so the greedy plan fails the gap check there, and
// LB_2 prices that join exactly and certifies the plan.
func certifiedChain3() (*catalog.Catalog, *query.SPJ) {
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{Name: "a", Rows: 10000, Pages: 1000,
		Columns: []*catalog.Column{{Name: "k", Distinct: 10000, Min: 1, Max: 10000}}})
	cat.MustAdd(&catalog.Table{Name: "b", Rows: 10000, Pages: 1000,
		Columns: []*catalog.Column{
			{Name: "k", Distinct: 10000, Min: 1, Max: 10000},
			{Name: "j", Distinct: 10000, Min: 1, Max: 10000},
		}})
	cat.MustAdd(&catalog.Table{Name: "c", Rows: 1000, Pages: 100,
		Columns: []*catalog.Column{{Name: "j", Distinct: 1000, Min: 1, Max: 1000}}})
	col := func(t, c string) query.ColumnRef { return query.ColumnRef{Table: t, Column: c} }
	q := &query.SPJ{
		Tables: []string{"a", "b", "c"},
		Joins: []query.JoinPred{
			{Left: col("a", "k"), Right: col("b", "k"), Selectivity: 1.0 / 10000},
			{Left: col("b", "j"), Right: col("c", "j"), Selectivity: 1.0 / 10000},
		},
		Selections: []query.Selection{{Col: col("c", "j"), Selectivity: 0.099}},
	}
	return cat, q
}

// lowRisk2 is cmd/lecd's lowrisk2 test catalog and query: a filtered
// million-row relation joins a thousand-row one, the sequential scans
// dominate, and the greedy plan sits within DefaultTierMaxGap of LB_1.
func lowRisk2() (*catalog.Catalog, *query.SPJ) {
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{Name: "x", Rows: 1000, Pages: 100,
		Columns: []*catalog.Column{{Name: "k", Distinct: 1000, Min: 1, Max: 1000}}})
	cat.MustAdd(&catalog.Table{Name: "y", Rows: 1_000_000, Pages: 100_000,
		Columns: []*catalog.Column{{Name: "k", Distinct: 1_000_000, Min: 1, Max: 1_000_000}}})
	col := func(t, c string) query.ColumnRef { return query.ColumnRef{Table: t, Column: c} }
	q := &query.SPJ{
		Tables:     []string{"x", "y"},
		Joins:      []query.JoinPred{{Left: col("x", "k"), Right: col("y", "k"), Selectivity: 1.0 / 1_000_000}},
		Selections: []query.Selection{{Col: col("y", "k"), Selectivity: 0.01}},
	}
	return cat, q
}

// TestLadderReportsCheckedGap: a budget that interrupts the left-deep DP
// after some complete levels sends the run to the greedy rung, which
// reports its gap against the last complete level's LB_k: a true bound on
// how far the degraded plan is from the optimum, and no looser than LB_1's.
func TestLadderReportsCheckedGap(t *testing.T) {
	tightened := 0
	for i := 0; i < 24; i++ {
		seed := int64(55000 + i)
		dm := randMemDist3(seed)
		cat, q := randInstance(t, seed, 7, tierShapes[i%len(tierShapes)], i%2 == 0)
		full, err := AlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		budget := full.Count.CostEvals * (1 + i%3) / 4
		eng, err := NewOptimizer(cat, q, Options{Budget: Budget{MaxCostEvals: budget}}, Config{Coster: StaticParams{Mem: dm}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.OptimizeCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Rung != RungGreedy {
			t.Fatalf("seed %d budget %d: rung %q, want %q", seed, budget, res.Rung, RungGreedy)
		}
		if res.TierGap < 0 || math.IsNaN(res.TierGap) || math.IsInf(res.TierGap, 0) {
			t.Fatalf("seed %d: greedy rung gap %v", seed, res.TierGap)
		}
		if res.Cost > (1+res.TierGap)*full.Cost*(1+1e-9) {
			t.Fatalf("seed %d: greedy rung costs %v, above (1+%v)·OPT = %v", seed, res.Cost, res.TierGap, (1+res.TierGap)*full.Cost)
		}
		lb1Gap := res.Cost/eng.tierLowerBound(eng.tierWeights(eng.phaseDists())) - 1
		if res.TierGap > lb1Gap*(1+1e-9) {
			t.Fatalf("seed %d: checked gap %v looser than LB_1 gap %v", seed, res.TierGap, lb1Gap)
		}
		if res.TierGap < lb1Gap*(1-1e-9) {
			tightened++
		}
	}
	if tightened == 0 {
		t.Fatal("no interrupted run tightened its gap past LB_1")
	}
	t.Logf("%d of 24 interrupted runs reported a gap tighter than LB_1's", tightened)
}

// tierDPCountersPinned is tierDPCounterGrid's total, recorded before the
// certificate existed.
var tierDPCountersPinned = Counters{
	CostEvals: 173815, PlansBuilt: 4952, Subsets: 3751, SubsetsEnumerated: 3751,
	SubsetsSkipped: 2057, JoinSteps: 58500, Prunes: 44657, MemoHits: 5463,
	ArenaSize: 564, ArenaHits: 48,
}
