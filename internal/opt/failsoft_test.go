package opt

// Fail-soft behavior of the engine: budget exhaustion, deadline expiry,
// injected coster panics, and NaN/Inf cost poisoning must all degrade down
// the anytime ladder to a valid plan (or a typed error) — never a panic,
// never a garbage plan. The faults are driven by internal/faultinject.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// failsoftConfigs enumerates the strategy × space grid the fault matrix
// runs over. Each entry builds a fresh engine for the instance.
func failsoftConfigs(dm *stats.Dist) map[string]Config {
	chain := stats.MustNewChain(dm.Support(), [][]float64{
		{0.8, 0.2, 0}, {0.1, 0.8, 0.1}, {0, 0.2, 0.8},
	})
	return map[string]Config{
		"fixed/left-deep":   {Coster: FixedParams{Mem: dm.Mean()}},
		"static/left-deep":  {Coster: StaticParams{Mem: dm}},
		"static/bushy":      {Space: SpaceBushy, Coster: StaticParams{Mem: dm}},
		"phased/pipelined":  {Space: SpacePipelined, Coster: PhasedParams{Phases: []*stats.Dist{dm}}},
		"markov/left-deep":  {Coster: MarkovParams{Chain: chain, Initial: dm}},
		"multi/left-deep":   {Coster: MultiParams{Mem: dm}},
		"static/bushy-util": {Space: SpaceBushy, Coster: StaticParams{Mem: dm}, Objective: ExponentialUtility{Gamma: 1e-6}},
	}
}

// checkValidPlan asserts the result carries a finished plan covering every
// relation with a finite classical cost.
func checkValidPlan(t *testing.T, res *Result, q *query.SPJ, label string) {
	t.Helper()
	if res == nil || res.Plan == nil {
		t.Fatalf("%s: no plan returned", label)
	}
	if got := res.Plan.Rels().Len(); got != q.NumRels() {
		t.Fatalf("%s: plan covers %d of %d relations", label, got, q.NumRels())
	}
	if c := plan.Cost(res.Plan, 1000); math.IsNaN(c) || math.IsInf(c, 0) || c <= 0 {
		t.Fatalf("%s: plan cost %v is not finite positive", label, c)
	}
}

// runFaultMatrix injects every fault kind (poisoned costs, a panic,
// mid-search cancellation) into a traced left-deep and bushy search of one
// instance: each run must end with a valid finished plan (possibly
// degraded) or a typed error, and must not hang.
func runFaultMatrix(t *testing.T, opts Options, seed int64, n int, shape workload.Topology) {
	dm := stats.MustNew([]float64{200, 900, 4000}, []float64{0.3, 0.4, 0.3})
	faults := map[string]faultinject.Rule{
		"nan":    {Site: faultinject.JoinCost, Kind: faultinject.KindNaN, After: 3, Every: 5},
		"inf":    {Site: faultinject.JoinCost, Kind: faultinject.KindInf, After: 3, Every: 5},
		"panic":  {Site: faultinject.JoinCost, Kind: faultinject.KindPanic, After: 10},
		"cancel": {Site: faultinject.JoinCost, Kind: faultinject.KindCancel, After: 15},
	}
	opts.Trace = true
	for fname, rule := range faults {
		for _, space := range []Space{SpaceLeftDeep, SpaceBushy} {
			t.Run(fname+"/"+space.String(), func(t *testing.T) {
				cat, q := randInstance(t, seed, n, shape, true)
				eng, err := NewOptimizer(cat, q, opts, Config{Space: space, Coster: StaticParams{Mem: dm}})
				if err != nil {
					t.Fatalf("NewOptimizer: %v", err)
				}
				rc, cancel := context.WithCancel(context.Background())
				defer cancel()
				in := faultinject.New(1, rule)
				in.OnCancel(cancel)
				faultinject.Enable(in)
				defer faultinject.Disable()

				done := make(chan struct{})
				var res *Result
				var oerr error
				go func() {
					res, oerr = eng.OptimizeCtx(rc)
					close(done)
				}()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("run hung under fault injection")
				}
				if oerr != nil {
					return // typed failure is acceptable for total poisoning
				}
				checkValidPlan(t, res, q, fname)
			})
		}
	}
}

// TestFaultMatrix runs the fault matrix over the exhaustive lattice.
func TestFaultMatrix(t *testing.T) {
	runFaultMatrix(t, Options{}, 7301, 6, 0)
}

func TestBudgetExhaustionDegradesEveryConfig(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7001, 5)
	for name, cfg := range failsoftConfigs(dm) {
		opts := Options{Budget: Budget{MaxCostEvals: 10}}
		eng, err := NewOptimizer(cat, q, opts, cfg)
		if err != nil {
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradeBudget {
			t.Errorf("%s: degraded=%v reason=%v, want budget degradation", name, res.Degraded, res.Reason)
		}
		if res.Rung != RungPartial && res.Rung != RungGreedy {
			t.Errorf("%s: rung %q", name, res.Rung)
		}
		if res.Count.Degradations == 0 {
			t.Errorf("%s: Degradations counter not incremented", name)
		}
	}
}

func TestSubsetBudgetTrips(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7002, 6)
	eng, err := NewOptimizer(cat, q, Options{Budget: Budget{MaxSubsets: 3}}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.OptimizeCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkValidPlan(t, res, q, "subset budget")
	if !res.Degraded || res.Reason != DegradeBudget {
		t.Errorf("degraded=%v reason=%v, want budget", res.Degraded, res.Reason)
	}
}

func TestCancelledContextDegradesEveryConfig(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7003, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired when the search starts
	for name, cfg := range failsoftConfigs(dm) {
		eng, err := NewOptimizer(cat, q, Options{}, cfg)
		if err != nil {
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(ctx)
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradeDeadline {
			t.Errorf("%s: degraded=%v reason=%v, want deadline", name, res.Degraded, res.Reason)
		}
	}
}

func TestInjectedPanicDegradesEveryConfig(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7004, 5)
	for name, cfg := range failsoftConfigs(dm) {
		faultinject.Enable(faultinject.New(1, faultinject.Rule{
			Site: faultinject.JoinCost, Kind: faultinject.KindPanic, After: 3,
		}))
		eng, err := NewOptimizer(cat, q, Options{}, cfg)
		if err != nil {
			faultinject.Disable()
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(context.Background())
		faultinject.Disable()
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradePanic {
			t.Errorf("%s: degraded=%v reason=%v, want panic", name, res.Degraded, res.Reason)
		}
		if res.Count.PanicsRecovered == 0 {
			t.Errorf("%s: PanicsRecovered counter not incremented", name)
		}
	}
}

func TestNaNCostIsGuardedNotPropagated(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7005, 5)
	for name, cfg := range failsoftConfigs(dm) {
		faultinject.Enable(faultinject.New(1, faultinject.Rule{
			Site: faultinject.JoinCost, Kind: faultinject.KindNaN, After: 2,
		}))
		eng, err := NewOptimizer(cat, q, Options{}, cfg)
		if err != nil {
			faultinject.Disable()
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(context.Background())
		faultinject.Disable()
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if res.Count.NonFiniteCosts == 0 {
			t.Errorf("%s: NonFiniteCosts counter not incremented", name)
		}
		if !res.Degraded || res.Reason != DegradeNonFinite {
			t.Errorf("%s: degraded=%v reason=%v, want non-finite flag", name, res.Degraded, res.Reason)
		}
		if math.IsNaN(res.Cost) {
			t.Errorf("%s: NaN objective escaped: %v", name, res.Cost)
		}
	}
}

func TestAllCostsPoisonedIsTypedError(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7006, 4)
	faultinject.Enable(faultinject.New(1,
		faultinject.Rule{Site: faultinject.JoinCost, Kind: faultinject.KindNaN, After: 1, Every: 1},
		faultinject.Rule{Site: faultinject.SortCost, Kind: faultinject.KindInf, After: 1, Every: 1},
	))
	defer faultinject.Disable()
	eng, err := NewOptimizer(cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.OptimizeCtx(context.Background())
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
}

func TestForcedCancellationAtNthEval(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7007, 5)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.JoinCost, Kind: faultinject.KindCancel, After: 20,
	})
	in.OnCancel(cancel)
	faultinject.Enable(in)
	defer faultinject.Disable()
	eng, err := NewOptimizer(cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.OptimizeCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkValidPlan(t, res, q, "forced cancel")
	if !res.Degraded || res.Reason != DegradeDeadline {
		t.Errorf("degraded=%v reason=%v, want deadline", res.Degraded, res.Reason)
	}
}

func TestSlowCosterHitsDeadline(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7008, 5)
	faultinject.Enable(faultinject.New(1, faultinject.Rule{
		Site: faultinject.JoinCost, Kind: faultinject.KindStall, After: 1, Every: 1, Sleep: 2 * time.Millisecond,
	}))
	defer faultinject.Disable()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	eng, err := NewOptimizer(cat, q, Options{}, Config{Coster: StaticParams{Mem: dm}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.OptimizeCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkValidPlan(t, res, q, "slow coster")
	if !res.Degraded || res.Reason != DegradeDeadline {
		t.Errorf("degraded=%v reason=%v, want deadline", res.Degraded, res.Reason)
	}
}

// TestAlgorithmsABDegradeUnderBudget drives the shared-session bucket loops,
// and LSCPlan, whose re-costed Result must keep the engine's degradation.
func TestAlgorithmsABDegradeUnderBudget(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7009, 5)
	opts := Options{Budget: Budget{MaxCostEvals: 10}}
	for name, f := range map[string]func() (*Result, error){
		"A":   func() (*Result, error) { return AlgorithmA(context.Background(), cat, q, opts, dm) },
		"B":   func() (*Result, error) { return AlgorithmB(context.Background(), cat, q, opts, dm) },
		"LSC": func() (*Result, error) { return LSCPlan(cat, q, opts, dm, false) },
	} {
		res, err := f()
		if err != nil {
			t.Fatalf("algorithm %s: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradeBudget {
			t.Errorf("algorithm %s: degraded=%v reason=%v, want budget", name, res.Degraded, res.Reason)
		}
	}
}

// TestAlgorithmsABDegradeUnderPanic: a panicking coster inside the bucket
// loops must still yield a candidate.
func TestAlgorithmsABDegradeUnderPanic(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7010, 5)
	for name, f := range map[string]func() (*Result, error){
		"A": func() (*Result, error) { return AlgorithmA(context.Background(), cat, q, Options{}, dm) },
		"B": func() (*Result, error) { return AlgorithmB(context.Background(), cat, q, Options{}, dm) },
	} {
		faultinject.Enable(faultinject.New(1, faultinject.Rule{
			Site: faultinject.JoinCost, Kind: faultinject.KindPanic, After: 5,
		}))
		res, err := f()
		faultinject.Disable()
		if err != nil {
			t.Fatalf("algorithm %s: %v", name, err)
		}
		checkValidPlan(t, res, q, name)
		if !res.Degraded || res.Reason != DegradePanic {
			t.Errorf("algorithm %s: degraded=%v reason=%v, want panic", name, res.Degraded, res.Reason)
		}
	}
}

// TestAggregationDegradesUnderBudget covers the GROUP BY path.
func TestAggregationDegradesUnderBudget(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7011, 4)
	gb := query.ColumnRef{Table: q.Tables[0], Column: cat.MustTable(q.Tables[0]).Columns[0].Name}
	qq := *q
	qq.GroupBy = &gb
	qq.OrderBy = nil
	res, err := OptimizeWithAggregation(context.Background(), cat, &qq,
		Options{Budget: Budget{MaxCostEvals: 10}}, dm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan")
	}
	if !res.Degraded || res.Reason != DegradeBudget {
		t.Errorf("degraded=%v reason=%v, want budget", res.Degraded, res.Reason)
	}
}

// TestUnbudgetedRunsIdentical: with no budget and a background context, the
// fail-soft machinery must be invisible — same plan, same objective, same
// work counters as the plain entry points, and never a Degraded flag.
func TestUnbudgetedRunsIdentical(t *testing.T) {
	for seed := int64(7100); seed < 7106; seed++ {
		cat, q, dm := engineTestInstance(t, seed, 5)
		plain, err := AlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := AlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Degraded || ctxed.Degraded {
			t.Fatalf("seed %d: unbudgeted run degraded", seed)
		}
		if plain.Plan.Key() != ctxed.Plan.Key() || plain.Cost != ctxed.Cost {
			t.Errorf("seed %d: plan/cost diverge: %s %v vs %s %v",
				seed, plain.Plan.Key(), plain.Cost, ctxed.Plan.Key(), ctxed.Cost)
		}
		if plain.Count.CostEvals != ctxed.Count.CostEvals || plain.Count.Subsets != ctxed.Count.Subsets {
			t.Errorf("seed %d: counters diverge: %+v vs %+v", seed, plain.Count, ctxed.Count)
		}
	}
}

// TestGenerousBudgetNeverDegrades: a budget larger than the search's actual
// work must not perturb anything.
func TestGenerousBudgetNeverDegrades(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7200, 5)
	free, err := AlgorithmC(cat, q, Options{}, dm)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := AlgorithmC(cat, q,
		Options{Budget: Budget{MaxCostEvals: free.Count.CostEvals * 10}}, dm)
	if err != nil {
		t.Fatal(err)
	}
	if capped.Degraded {
		t.Fatal("generous budget degraded the run")
	}
	if free.Plan.Key() != capped.Plan.Key() {
		t.Errorf("plans diverge: %s vs %s", free.Plan.Key(), capped.Plan.Key())
	}
}

// TestBudgetMonotoneQuality: raising the budget must never worsen the
// returned plan's true expected cost on these instances — the anytime
// ladder's value proposition (experiment E19 reports the full curve).
func TestBudgetLadderReachesOptimum(t *testing.T) {
	cat, q, dm := engineTestInstance(t, 7201, 5)
	full, err := AlgorithmC(cat, q, Options{}, dm)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, b := range []int{5, 50, 500, 0} {
		res, err := AlgorithmC(cat, q, Options{Budget: Budget{MaxCostEvals: b}}, dm)
		if err != nil {
			t.Fatalf("budget %d: %v", b, err)
		}
		checkValidPlan(t, res, q, "budget ladder")
		ec := plan.ExpCost(res.Plan, dm)
		// Not strictly monotone in general, but the unlimited run must match
		// the optimum and every rung must be within a sane factor of it.
		if b == 0 {
			if res.Degraded {
				t.Error("unlimited budget degraded")
			}
			if ec > full.Cost*(1+1e-9) {
				t.Errorf("unlimited budget ec %v > optimum %v", ec, full.Cost)
			}
		}
		if ec > prev*100 {
			t.Errorf("budget %d: quality collapsed: %v after %v", b, ec, prev)
		}
		prev = ec
	}
}

// TestGreedyFallbackDirect exercises the terminal rung in isolation: with a
// 1-eval budget nothing completes, so the greedy plan is the answer. The
// rung is the tier's greedy planner, so wherever the tier serves, a forced
// TierGreedy run of the same configuration returns the same plan and cost;
// and the rung's Cost is the plan's expected cost under the coster's phase
// distributions (an expected cost also under a risk objective). The n=30
// chain under the connected enumerator covers sparse memos and a query far
// past the exhaustive lattice.
func TestGreedyFallbackDirect(t *testing.T) {
	type fallbackCase struct {
		cat  *catalog.Catalog
		q    *query.SPJ
		opts Options
		cfg  Config
	}
	cases := map[string]fallbackCase{}
	for _, seed := range []int64{7202, 7203, 7204} {
		cat, q, dm := engineTestInstance(t, seed, 6)
		for name, cfg := range failsoftConfigs(dm) {
			cases[fmt.Sprintf("%s/seed%d", name, seed)] = fallbackCase{cat, q, Options{}, cfg}
		}
	}
	cat, q := randInstance(t, 7205, 30, workload.Chain, true)
	cases["static/chain30-connected"] = fallbackCase{cat, q, Options{Enumeration: EnumConnected},
		Config{Coster: StaticParams{Mem: randMemDist3(7205)}}}

	greedy, matched := 0, 0
	for name, c := range cases {
		opts := c.opts
		opts.Budget = Budget{MaxCostEvals: 1}
		eng, err := NewOptimizer(c.cat, c.q, opts, c.cfg)
		if err != nil {
			t.Fatalf("%s: NewOptimizer: %v", name, err)
		}
		res, err := eng.OptimizeCtx(context.Background())
		if err != nil {
			t.Fatalf("%s: OptimizeCtx: %v", name, err)
		}
		checkValidPlan(t, res, c.q, name)
		if !res.Degraded {
			t.Errorf("%s: 1-eval budget did not degrade", name)
		}
		if res.Rung != RungGreedy {
			continue
		}
		greedy++
		forcedOpts := c.opts
		forcedOpts.Tier = TierGreedy
		forced, err := NewOptimizer(c.cat, c.q, forcedOpts, c.cfg)
		if err != nil {
			t.Fatalf("%s: forced NewOptimizer: %v", name, err)
		}
		fres, err := forced.Optimize()
		if err != nil {
			t.Fatalf("%s: forced greedy: %v", name, err)
		}
		if fres.Tier == TierNameGreedy {
			matched++
			if res.Plan.Key() != fres.Plan.Key() || res.Cost != fres.Cost {
				t.Errorf("%s: rung plan %s cost %v, forced greedy tier %s cost %v",
					name, res.Plan.Key(), res.Cost, fres.Plan.Key(), fres.Cost)
			}
		}
		if _, multi := c.cfg.Coster.(MultiParams); multi {
			continue
		}
		if ec := plan.ExpCostPhased(res.Plan, eng.phaseDists()); relDiff(res.Cost, ec) > 1e-9 {
			t.Errorf("%s: rung Cost %v, plan's expected cost %v", name, res.Cost, ec)
		}
	}
	if greedy == 0 {
		t.Fatal("no configuration reached the greedy rung")
	}
	t.Logf("%d of %d cases on the greedy rung, %d matched against a forced greedy tier", greedy, len(cases), matched)
}

// TestSingleRelationFailsoft: the n=1 corner under faults.
func TestSingleRelationFailsoft(t *testing.T) {
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{Name: "t", Rows: 1000, Pages: 100,
		Columns: []*catalog.Column{{Name: "k", Distinct: 1000, Min: 1, Max: 1000}}})
	q := &query.SPJ{Tables: []string{"t"}, OrderBy: &query.ColumnRef{Table: "t", Column: "k"}}
	if err := q.Validate(cat); err != nil {
		t.Fatal(err)
	}
	dm := stats.MustNew([]float64{10, 100}, []float64{0.5, 0.5})
	res, err := AlgorithmC(cat, q, Options{Budget: Budget{MaxCostEvals: 1}}, dm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil {
		t.Fatal("no plan for single relation")
	}
}
