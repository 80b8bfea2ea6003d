package lec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// TestParseStrategy pins the flag names of every strategy and the error for
// anything else.
func TestParseStrategy(t *testing.T) {
	names := map[Strategy]string{
		LSCMean: "lsc-mean", LSCMode: "lsc-mode",
		AlgorithmA: "a", AlgorithmB: "b", AlgorithmC: "c", AlgorithmD: "d",
	}
	for _, s := range Strategies() {
		name, ok := names[s]
		if !ok {
			t.Fatalf("strategy %v has no flag name in this table", s)
		}
		got, err := ParseStrategy(name)
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, s)
		}
	}
	for _, bad := range []string{"", "all", "C", "algorithm-c", "e", " c"} {
		_, err := ParseStrategy(bad)
		if want := fmt.Sprintf("unknown strategy %q", bad); err == nil || err.Error() != want {
			t.Errorf("ParseStrategy(%q) error = %v, want %q", bad, err, want)
		}
	}
}

// withGroupBy returns q grouped by the first column of its first relation.
func withGroupBy(o *Optimizer, q *query.SPJ) *query.SPJ {
	tab := o.Catalog().MustTable(q.BaseTable(q.Tables[0]))
	gb := query.ColumnRef{Table: q.Tables[0], Column: tab.Columns[0].Name}
	g := *q
	g.GroupBy = &gb
	g.OrderBy = nil
	return &g
}

// TestGroupByExpectedCostIsStatic pins the GROUP BY Decision's
// ExpectedCost: the aggregation path plans under the static memory
// distribution and reports the plan's static E[Φ], even when the
// environment has a Markov chain (which Simulate still walks).
func TestGroupByExpectedCostIsStatic(t *testing.T) {
	o, q, env := robustInstance(t, 9101, 0)
	chain, err := stats.RandomWalkChain(env.Memory.Support(), 0.4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	env.Chain = chain
	g := withGroupBy(o, q)
	phased := 0
	for _, s := range Strategies() {
		d, err := o.Optimize(g, env, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if want := plan.ExpCost(d.Plan, env.Memory); d.ExpectedCost != want {
			t.Errorf("%v: ExpectedCost %v, want the static E[Φ] %v", s, d.ExpectedCost, want)
		}
		if plan.ExpCostPhased(d.Plan, opt.PhaseDistsFor(g, chain, env.Memory)) != d.ExpectedCost {
			phased++
		}
		if d.env.Chain != chain {
			t.Errorf("%v: Decision dropped the environment's chain", s)
		}
	}
	if phased == 0 {
		t.Fatal("the chain's per-phase E[Φ] equals the static one for every plan; the instance cannot tell them apart")
	}
}

// directRun is a strategy's run straight on the engine, without the
// facade: the candidate-pool entry points for GROUP BY blocks and for
// Algorithms A and B, one engine run otherwise.
func directRun(rc context.Context, o *Optimizer, q *query.SPJ, env Environment, s Strategy) (*opt.Result, error) {
	cat, opts, dm := o.Catalog(), o.opts, env.Memory
	if q.GroupBy != nil {
		switch s {
		case LSCMean:
			dm = stats.Point(dm.Mean())
		case LSCMode:
			dm = stats.Point(dm.Mode())
		}
		return opt.OptimizeWithAggregation(rc, cat, q, opts, dm)
	}
	var c opt.Coster
	switch s {
	case LSCMean:
		c = opt.FixedParams{Mem: dm.Mean()}
	case LSCMode:
		c = opt.FixedParams{Mem: dm.Mode()}
	case AlgorithmA:
		return opt.AlgorithmA(rc, cat, q, opts, dm)
	case AlgorithmB:
		return opt.AlgorithmB(rc, cat, q, opts, dm)
	case AlgorithmC:
		c = opt.StaticParams{Mem: dm}
		if env.Chain != nil {
			c = opt.MarkovParams{Chain: env.Chain, Initial: dm}
		}
	case AlgorithmD:
		c = opt.MultiParams{Mem: dm}
	}
	return directSearch(rc, o, q, opt.Config{Coster: c})
}

func directSearch(rc context.Context, o *Optimizer, q *query.SPJ, cfg opt.Config) (*opt.Result, error) {
	eng, err := opt.NewOptimizer(o.Catalog(), q, o.opts, cfg)
	if err != nil {
		return nil, err
	}
	return eng.OptimizeCtx(rc)
}

// digest renders what the differential test compares of a run: the plan,
// its expected cost under the environment, and the engine's counters,
// degradation and tier fields.
func digest(res *opt.Result, expected float64) string {
	return fmt.Sprintf("%s\n%s\ncost=%x\nstats=%+v\ndeg=%v/%v/%s tier=%s/%s/%x enum=%v",
		res.Plan.Key(), plan.Explain(res.Plan), math.Float64bits(expected), res.Count,
		res.Degraded, res.Reason, res.Rung,
		res.Tier, res.TierReason, math.Float64bits(res.TierGap), res.Enumeration)
}

// facadeDigest is digest of a facade Decision.
func facadeDigest(d *Decision) string {
	return digest(&opt.Result{
		Plan: d.Plan, Count: d.Stats,
		Degraded: d.Degraded, Reason: d.DegradeReason, Rung: d.DegradeRung,
		Tier: d.Tier, TierReason: d.TierReason, TierGap: d.TierGap, Enumeration: d.Enumeration,
	}, d.ExpectedCost)
}

// directDigest is digest of a direct engine result, priced as the facade
// prices it: per phase under a chain, statically for a GROUP BY block.
func directDigest(res *opt.Result, q *query.SPJ, env Environment) string {
	ec := plan.ExpCost(res.Plan, env.Memory)
	if env.Chain != nil && q.GroupBy == nil {
		ec = plan.ExpCostPhased(res.Plan, opt.PhaseDistsFor(q, env.Chain, env.Memory))
	}
	return digest(res, ec)
}

// dispatchCondition is one row of the differential grid: a work budget, a
// pre-cancelled context, a Markov environment, or a GROUP BY block.
type dispatchCondition struct {
	name    string
	budget  int
	cancel  bool
	chain   bool
	groupBy bool
	// degrades says every run under the condition must come back degraded.
	degrades bool
}

var dispatchConditions = []dispatchCondition{
	{name: "plain"},
	{name: "budget", budget: 10, degrades: true},
	{name: "cancelled", cancel: true, degrades: true},
	{name: "chain", chain: true},
	{name: "group-by", groupBy: true},
}

// setup builds the condition's optimizer, query, environment and context.
func (c dispatchCondition) setup(t *testing.T, seed int64) (context.Context, *Optimizer, *query.SPJ, Environment) {
	t.Helper()
	o, q, env := robustInstance(t, seed, c.budget)
	if c.chain {
		chain, err := stats.RandomWalkChain(env.Memory.Support(), 0.3, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		env.Chain = chain
	}
	if c.groupBy {
		q = withGroupBy(o, q)
	}
	ctx := context.Background()
	if c.cancel {
		cc, cancel := context.WithCancel(ctx)
		cancel()
		ctx = cc
	}
	return ctx, o, q, env
}

// compareRuns checks a facade run against a direct engine run of the same
// request: both fail, or both plan identically.
func compareRuns(t *testing.T, label string, d *Decision, derr error, ref *opt.Result, rerr error, q *query.SPJ, env Environment, degrades bool) {
	t.Helper()
	if derr != nil || rerr != nil {
		if (derr == nil) != (rerr == nil) {
			t.Errorf("%s: facade error %v, direct error %v", label, derr, rerr)
		}
		return
	}
	if got, want := facadeDigest(d), directDigest(ref, q, env); got != want {
		t.Errorf("%s: facade run differs from the direct engine run\nfacade:\n%s\ndirect:\n%s", label, got, want)
	}
	if degrades && !d.Degraded {
		t.Errorf("%s: not degraded", label)
	}
}

// TestDispatchMatchesEngine is the facade's differential test: every
// strategy, and OptimizeSearch over the three spaces, under each condition
// must plan exactly as the engine does when called directly.
func TestDispatchMatchesEngine(t *testing.T) {
	for ci, c := range dispatchConditions {
		for _, seed := range []int64{9201, 9202} {
			seed += int64(10 * ci)
			for _, s := range Strategies() {
				ctx, o, q, env := c.setup(t, seed)
				d, derr := o.OptimizeContext(ctx, q, env, s)
				ref, rerr := directRun(ctx, o, q, env, s)
				compareRuns(t, fmt.Sprintf("%s/%d/%v", c.name, seed, s), d, derr, ref, rerr, q, env, c.degrades)
			}
			for _, space := range []Space{SpaceLeftDeep, SpaceBushy, SpacePipelined} {
				ctx, o, q, env := c.setup(t, seed)
				d, derr := o.OptimizeSearchContext(ctx, q, env, Search{Space: space})
				if c.groupBy {
					if !errors.Is(derr, ErrInvalidQuery) {
						t.Errorf("%s/%d/search-%v: GROUP BY error %v (Decision %v), want ErrInvalidQuery", c.name, seed, space, derr, d)
					}
					continue
				}
				cfg := opt.Config{Space: space, Coster: opt.StaticParams{Mem: env.Memory}}
				if env.Chain != nil {
					cfg.Coster = opt.MarkovParams{Chain: env.Chain, Initial: env.Memory}
				}
				ref, rerr := directSearch(ctx, o, q, cfg)
				compareRuns(t, fmt.Sprintf("%s/%d/search-%v", c.name, seed, space), d, derr, ref, rerr, q, env, c.degrades)
			}
		}
	}
}
