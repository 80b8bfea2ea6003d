package lec

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/opt"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestOptimizeRiskAverse(t *testing.T) {
	cat, q, dm := workload.Example11()
	o := New(cat)
	env := Environment{Memory: dm}
	d, err := o.OptimizeRiskAverse(q, env, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// The risk-averse choice on Example 1.1 is the zero-variance Grace
	// hash plan.
	if d.Risk.Variance != 0 {
		t.Errorf("risk-averse plan has variance %v", d.Risk.Variance)
	}
	if _, err := o.OptimizeRiskAverse(q, Environment{}, 1e-6); err == nil {
		t.Error("missing memory accepted")
	}
	if _, err := o.OptimizeRiskAverse(q, env, 0); err == nil {
		t.Error("zero gamma accepted")
	}
	// Dynamic environment also works.
	env.Chain = stats.IdentityChain(dm.Support())
	if _, err := o.OptimizeRiskAverse(q, env, 1e-6); err != nil {
		t.Errorf("dynamic risk-averse: %v", err)
	}
}

// TestOptimizeRiskAverseMatchesEngine: OptimizeRiskAverse takes the
// facade's run path — a nil query is an input error, and the Decision
// carries the engine's counters and degradation — and plans exactly as a
// direct exponential-utility engine run over the per-phase marginals
// (opt.PhaseDistsFor under a chain, not the Markov coster).
func TestOptimizeRiskAverseMatchesEngine(t *testing.T) {
	const gamma = 1e-6
	o, _, env := robustInstance(t, 9301, 0)
	if _, err := o.OptimizeRiskAverse(nil, env, gamma); !errors.Is(err, ErrInvalidQuery) {
		t.Fatalf("nil query: error %v, want ErrInvalidQuery", err)
	}
	for ci, c := range dispatchConditions {
		if c.cancel {
			continue // no context to cancel
		}
		for _, seed := range []int64{9301, 9302} {
			seed += int64(10 * ci)
			_, o, q, env := c.setup(t, seed)
			d, derr := o.OptimizeRiskAverse(q, env, gamma)
			if c.groupBy {
				if !errors.Is(derr, ErrInvalidQuery) {
					t.Errorf("%s/%d: GROUP BY error %v (Decision %v), want ErrInvalidQuery", c.name, seed, derr, d)
				}
				continue
			}
			phases := []*stats.Dist{env.Memory}
			if env.Chain != nil {
				phases = opt.PhaseDistsFor(q, env.Chain, env.Memory)
			}
			cfg := opt.Config{Coster: opt.PhasedParams{Phases: phases}, Objective: opt.ExponentialUtility{Gamma: gamma}}
			ref, rerr := directSearch(context.Background(), o, q, cfg)
			label := fmt.Sprintf("%s/%d", c.name, seed)
			compareRuns(t, label, d, derr, ref, rerr, q, env, c.degrades)
			if derr == nil && d.Stats.CostEvals == 0 {
				t.Errorf("%s: Decision.Stats has no cost evaluations", label)
			}
		}
	}
}

func TestValueOfInformationFacade(t *testing.T) {
	cat, q, dm := workload.Example11()
	o := New(cat)
	v, err := o.ValueOfInformation(q, Environment{Memory: dm})
	if err != nil {
		t.Fatal(err)
	}
	if v.EVPI <= 0 {
		t.Errorf("EVPI = %v, want > 0 on Example 1.1", v.EVPI)
	}
	if !v.ShouldObserve(v.EVPI/2) || v.ShouldObserve(v.EVPI*2) {
		t.Error("ShouldObserve thresholds wrong")
	}
	if _, err := o.ValueOfInformation(q, Environment{}); err == nil {
		t.Error("missing memory accepted")
	}
}

func TestCompileChoicePlanFacade(t *testing.T) {
	cat, q, dm := workload.Example11()
	o := New(cat)
	cp, err := o.CompileChoicePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if cp.NumAlternatives() < 2 {
		t.Errorf("%d alternatives", cp.NumAlternatives())
	}
	ec, err := cp.ExpCost(dm)
	if err != nil || ec <= 0 {
		t.Errorf("choice ExpCost: %v, %v", ec, err)
	}
	bad := *q
	bad.Tables = []string{"ghost"}
	if _, err := o.CompileChoicePlan(&bad); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestCompilePlanCacheFacade(t *testing.T) {
	cat, q, dm := workload.Example11()
	o := New(cat)
	cache, err := o.CompilePlanCache(q, []*stats.Dist{stats.Point(700), stats.Point(2000)})
	if err != nil {
		t.Fatal(err)
	}
	p, ec := cache.Lookup(dm)
	if p == nil || ec <= 0 {
		t.Errorf("cache lookup: %v, %v", p, ec)
	}
	bad := *q
	bad.Tables = []string{"ghost"}
	if _, err := o.CompilePlanCache(&bad, []*stats.Dist{dm}); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestDecisionSimulate(t *testing.T) {
	cat, q, dm := workload.Example11()
	o := New(cat)
	d, err := o.Optimize(q, Environment{Memory: dm}, AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := d.Simulate(500, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The LEC plan on Example 1.1 is deterministic in cost.
	if rep.StdDev != 0 || rep.Mean <= 0 {
		t.Errorf("simulation report %+v", rep)
	}
	if _, err := d.Simulate(0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	// Dynamic environment path.
	env := Environment{Memory: dm, Chain: stats.IdentityChain(dm.Support())}
	dd, err := o.Optimize(q, env, AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dd.Simulate(100, 2); err != nil {
		t.Errorf("dynamic simulate: %v", err)
	}
}

func TestExplainWithCosts(t *testing.T) {
	cat, q, dm := workload.Example11()
	o := New(cat)
	d, err := o.Optimize(q, Environment{Memory: dm}, LSCMode)
	if err != nil {
		t.Fatal(err)
	}
	out := d.ExplainWithCosts()
	for _, want := range []string{"cost profile:", "M =    700", "M =   2000", "Φ = "} {
		if !strings.Contains(out, want) {
			t.Errorf("ExplainWithCosts missing %q:\n%s", want, out)
		}
	}
}
