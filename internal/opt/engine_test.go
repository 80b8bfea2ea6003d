package opt

// Tests for the unified engine surface itself: the Space × Coster ×
// Objective combinations the pre-engine entry points could not express
// (verified against exhaustive oracles), Config validation, and session
// reuse via SetCoster / Reconfigure.

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

func engineTestInstance(t *testing.T, seed int64, n int) (*catalog.Catalog, *query.SPJ, *stats.Dist) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: n})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
		NumRels: n, Shape: workload.Topology(rng.Intn(3)), OrderBy: true, SelectionProb: 0.3,
	})
	if err != nil {
		t.Fatalf("RandomQuery: %v", err)
	}
	dm := stats.MustNew([]float64{200, 900, 4000}, []float64{0.3, 0.4, 0.3})
	return cat, q, dm
}

// TestBushyExpUtilityMatchesOracle: bushy space × exponential utility. With
// one static distribution every phase draws from it independently, so the
// objective of any tree is the sum of per-node certainty equivalents —
// which ExhaustiveBushy can minimize directly.
func TestBushyExpUtilityMatchesOracle(t *testing.T) {
	for i := 0; i < 6; i++ {
		cat, q, dm := engineTestInstance(t, int64(400+i), 4)
		gamma := 1e-5
		phases := []*stats.Dist{dm}
		got, err := runConfig(cat, q, Options{}, Config{Space: SpaceBushy, Coster: PhasedParams{Phases: phases}, Objective: ExponentialUtility{Gamma: gamma}})
		if err != nil {
			t.Fatalf("instance %d: bushy × utility: %v", i, err)
		}
		want, err := ExhaustiveBushy(cat, q, Options{}, func(p plan.Node) float64 {
			return CertaintyEquivalentIndep(p, phases, gamma)
		})
		if err != nil {
			t.Fatalf("instance %d: oracle: %v", i, err)
		}
		if relDiff(got.Cost, want.Cost) > 1e-9 {
			t.Errorf("instance %d: bushy × utility: engine %v vs oracle %v\nengine plan %s\noracle plan %s",
				i, got.Cost, want.Cost, got.Plan.Key(), want.Plan.Key())
		}
	}
}

// evalBushyPhased is the oracle objective for bushy × dynamic parameters:
// scans at access cost, each join charged in expectation under the phase
// distribution of index |S|−2 (S the subset the join computes — the
// engine's order-independent phase convention), and the final sort at the
// last phase.
func evalBushyPhased(root plan.Node, phases []*stats.Dist, n int) float64 {
	total := 0.0
	plan.Walk(root, func(m plan.Node) {
		switch v := m.(type) {
		case *plan.Scan:
			total += v.AccessCost()
		case *plan.Join:
			d := phaseDistAt(phases, v.Rels().Len()-2)
			total += cost.ExpJoinCostMem(v.Method, v.Left.OutPages(), v.Right.OutPages(), d)
		case *plan.Sort:
			if !plan.SatisfiesOrder(v.Input, v.Key_) {
				d := phaseDistAt(phases, n-2)
				pages := v.Input.OutPages()
				total += d.Expect(func(mem float64) float64 { return cost.SortCost(pages, mem) })
			}
		}
	})
	return total
}

// TestBushyDynamicMatchesOracle: bushy space × Markov-phased memory.
func TestBushyDynamicMatchesOracle(t *testing.T) {
	states := []float64{200, 900, 4000}
	chain := stats.MustNewChain(states, [][]float64{
		{0.7, 0.2, 0.1},
		{0.2, 0.6, 0.2},
		{0.1, 0.2, 0.7},
	})
	for i := 0; i < 6; i++ {
		cat, q, dm := engineTestInstance(t, int64(500+i), 4)
		got, err := runConfig(cat, q, Options{}, Config{Space: SpaceBushy, Coster: MarkovParams{Chain: chain, Initial: dm}})
		if err != nil {
			t.Fatalf("instance %d: bushy × Markov: %v", i, err)
		}
		n := q.NumRels()
		phases := chain.PhaseDists(dm, n-1)
		want, err := ExhaustiveBushy(cat, q, Options{}, func(p plan.Node) float64 {
			return evalBushyPhased(p, phases, n)
		})
		if err != nil {
			t.Fatalf("instance %d: oracle: %v", i, err)
		}
		if relDiff(got.Cost, want.Cost) > 1e-9 {
			t.Errorf("instance %d: bushy × dynamic: engine %v vs oracle %v\nengine plan %s\noracle plan %s",
				i, got.Cost, want.Cost, got.Plan.Key(), want.Plan.Key())
		}
	}
}

// evalPipelinedMV is the oracle objective for pipelined × variance-
// penalized: each join contributes E[cost] + λ·Var[cost] under its pipeline
// phase's distribution, the sort likewise at the last phase.
func evalPipelinedMV(root plan.Node, phases []*stats.Dist, lambda float64) float64 {
	pp := plan.PipelinePhases(root)
	total := 0.0
	joinIdx := 0
	plan.Walk(root, func(m plan.Node) {
		switch v := m.(type) {
		case *plan.Scan:
			total += v.AccessCost()
		case *plan.Join:
			d := phaseDistAt(phases, pp[joinIdx])
			a, b := v.Left.OutPages(), v.Right.OutPages()
			mean, vv := d.ExpectVariance(func(mem float64) float64 { return cost.JoinCost(v.Method, a, b, mem) })
			total += mean + lambda*vv
			joinIdx++
		case *plan.Sort:
			if !plan.SatisfiesOrder(v.Input, v.Key_) {
				last := 0
				if len(pp) > 0 {
					last = pp[len(pp)-1]
				}
				d := phaseDistAt(phases, last)
				pages := v.Input.OutPages()
				mean, vv := d.ExpectVariance(func(mem float64) float64 { return cost.SortCost(pages, mem) })
				total += mean + lambda*vv
			}
		}
	})
	return total
}

// TestPipelinedVariancePenalizedMatchesOracle: pipelined space × risk-
// augmented objective.
func TestPipelinedVariancePenalizedMatchesOracle(t *testing.T) {
	for i := 0; i < 6; i++ {
		cat, q, dm := engineTestInstance(t, int64(600+i), 4)
		lambda := 1e-6
		phases := []*stats.Dist{dm, stats.Point(900)}
		got, err := runConfig(cat, q, Options{}, Config{Space: SpacePipelined, Coster: PhasedParams{Phases: phases}, Objective: VariancePenalized{Lambda: lambda}})
		if err != nil {
			t.Fatalf("instance %d: pipelined × variance: %v", i, err)
		}
		want, err := Exhaustive(cat, q, Options{}, func(p plan.Node) float64 {
			return evalPipelinedMV(p, phases, lambda)
		})
		if err != nil {
			t.Fatalf("instance %d: oracle: %v", i, err)
		}
		if relDiff(got.Cost, want.Cost) > 1e-9 {
			t.Errorf("instance %d: pipelined × variance: engine %v vs oracle %v\nengine plan %s\noracle plan %s",
				i, got.Cost, want.Cost, got.Plan.Key(), want.Plan.Key())
		}
	}
}

// TestConfigValidation pins the engine's configuration error surface.
func TestConfigValidation(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 321, 3)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero gamma", Config{Coster: StaticParams{Mem: dm}, Objective: ExponentialUtility{Gamma: 0}}},
		{"no phases", Config{Coster: PhasedParams{}, Objective: ExponentialUtility{Gamma: 1e-5}}},
		{"nil coster", Config{}},
		{"multi × utility", Config{Coster: MultiParams{Mem: dm}, Objective: ExponentialUtility{Gamma: 1e-5}}},
		{"multi × variance", Config{Coster: MultiParams{Mem: dm}, Objective: VariancePenalized{Lambda: 1}}},
	}
	for _, c := range cases {
		if _, err := NewOptimizer(cat, q, Options{}, c.cfg); err == nil {
			t.Errorf("%s: NewOptimizer accepted invalid config %+v", c.name, c.cfg)
		}
	}
}

// TestSessionReuse checks that one engine re-run under different costers
// (the Algorithm A/B usage pattern) matches fresh engines bit for bit, and
// that the shared arena actually serves repeat constructions.
func TestSessionReuse(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 654, 4)
	eng, err := NewOptimizer(cat, q, Options{}, Config{Coster: FixedParams{Mem: dm.Value(0)}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dm.Len(); i++ {
		if err := eng.SetCoster(FixedParams{Mem: dm.Value(i)}); err != nil {
			t.Fatal(err)
		}
		shared, err := eng.Optimize()
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := SystemR(cat, q, Options{}, dm.Value(i))
		if err != nil {
			t.Fatal(err)
		}
		if shared.Plan.Key() != fresh.Plan.Key() || shared.Cost != fresh.Cost {
			t.Errorf("bucket %d: shared session (%s, %v) != fresh engine (%s, %v)",
				i, shared.Plan.Key(), shared.Cost, fresh.Plan.Key(), fresh.Cost)
		}
	}
	st := eng.Stats()
	if st.ArenaHits == 0 {
		t.Errorf("expected arena hits after %d shared runs, got 0 (size %d)", dm.Len(), st.ArenaSize)
	}
	if st.Subsets == 0 || st.JoinSteps == 0 || st.CostEvals == 0 {
		t.Errorf("instrumentation counters not threaded: %+v", st)
	}

	// Reconfigure switches space and objective on the same session.
	if err := eng.Reconfigure(Config{Space: SpaceBushy, Coster: StaticParams{Mem: dm}}); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Optimize()
	if err != nil {
		t.Fatal(err)
	}
	want, err := BushyAlgorithmC(cat, q, Options{}, dm)
	if err != nil {
		t.Fatal(err)
	}
	if got.Plan.Key() != want.Plan.Key() || got.Cost != want.Cost {
		t.Errorf("reconfigured session (%s, %v) != fresh bushy engine (%s, %v)",
			got.Plan.Key(), got.Cost, want.Plan.Key(), want.Cost)
	}
}

// TestOptimizeTopSpaceGuard: top-c lists are a left-deep-only facility.
func TestOptimizeTopSpaceGuard(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 987, 3)
	eng, err := NewOptimizer(cat, q, Options{}, Config{Space: SpaceBushy, Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.OptimizeTop(3); err == nil {
		t.Error("OptimizeTop on bushy space should fail")
	}
}
