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
//     within the configured (1+MaxGap) factor of the DP optimum — the
//     admissible-lower-bound argument made checkable;
//   - whenever TierAuto does not serve, it escalates with a typed reason
//     and the DP result is identical to a plain TierDP run;
//   - a seeded adversarial instance with probability mass straddling the
//     chosen method's cost level-set boundary must escalate.

import (
	"math"
	"testing"

	"repro/internal/catalog"
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
	TierEscVariance:    true,
	TierEscLevelSet:    true,
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
// expected cost is within (1+MaxGap) of the DP optimum, and an escalated
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
		risk := TierRisk{}.normalize()
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
			if res.TierReason != TierLowRisk {
				t.Fatalf("seed %d: served reason %q, want %q", seed, res.TierReason, TierLowRisk)
			}
			checkGreedyPlanShape(t, q, res.Plan)
			trueCost := plan.ExpCostPhased(res.Plan, auto.phaseDists())
			bound := (1 + risk.MaxGap) * dp.Cost * (1 + 1e-9)
			if trueCost > bound {
				t.Fatalf("seed %d shape %v n=%d: served greedy true cost %v exceeds (1+%.2f)·OPT = %v (OPT %v, reported gap %.3f)",
					seed, shape, n, trueCost, risk.MaxGap, bound, dp.Cost, res.TierGap)
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
		t.Error("TierAuto never escalated across the whole grid; the risk gate is dead")
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
// must never be served greedily. With the gap and variance thresholds
// opened wide the escalation is attributable to the level-set signal
// specifically; with default thresholds it must still escalate.
func TestTierAdversarialLevelSetMustEscalate(t *testing.T) {
	cat, q, dm := adversarialLevelSetInstance()

	// Isolate the level-set signal: gap and CV thresholds effectively off.
	eng, err := NewOptimizer(cat, q, Options{
		Tier:     TierAuto,
		TierRisk: TierRisk{MaxGap: 1e9, MaxCV: 1e9},
	}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tier != TierNameDP || res.TierReason != TierEscLevelSet {
		t.Fatalf("adversarial case: tier=%q reason=%q, want dp/%s", res.Tier, res.TierReason, TierEscLevelSet)
	}

	// Default thresholds: still must escalate (any reason).
	eng2, err := NewOptimizer(cat, q, Options{Tier: TierAuto}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := eng2.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tier != TierNameDP || !escalationReasons[res2.TierReason] {
		t.Fatalf("adversarial case under defaults: tier=%q reason=%q, want an escalation", res2.Tier, res2.TierReason)
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
		lb := eng.tierLowerBound(eng.phaseDists())
		if math.IsNaN(lb) || math.IsInf(lb, 0) {
			t.Fatalf("seed %d: non-finite lower bound %v", seed, lb)
		}
		if lb > res.Cost*(1+1e-9) {
			t.Fatalf("seed %d shape %v n=%d: lower bound %v exceeds DP optimum %v — not admissible",
				seed, shape, n, lb, res.Cost)
		}
	}
}
