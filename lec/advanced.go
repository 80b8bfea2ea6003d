package lec

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/eval"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file exposes the library's advanced capabilities through the facade:
// risk-sensitive optimization, value-of-information analysis, parametric
// (choice) plans, plan caches, and simulation.

// OptimizeRiskAverse picks a plan by exponential-utility dynamic
// programming with risk parameter gamma > 0 (larger = more risk-averse),
// under a per-phase-independent reading of the environment's memory
// distribution. Use when worst-case latency matters more than the mean;
// gamma → 0 recovers the LEC plan. Under a Markov chain each phase takes
// its marginal memory distribution (opt.PhaseDistsFor), independently of
// the others. The Decision reports AlgorithmC, whose DP this is a
// risk-adjusted variant of.
func (o *Optimizer) OptimizeRiskAverse(q *query.SPJ, env Environment, gamma float64) (*Decision, error) {
	return o.pooledRun(context.Background(), q, env, AlgorithmC, func(q *query.SPJ, env Environment) opt.Config {
		phases := []*stats.Dist{env.Memory}
		if env.Chain != nil {
			phases = opt.PhaseDistsFor(q, env.Chain, env.Memory)
		}
		return opt.Config{Coster: opt.PhasedParams{Phases: phases}, Objective: opt.ExponentialUtility{Gamma: gamma}}
	})
}

// ValueOfInformation reports how much observing the true memory value
// before planning would be worth (in page I/Os) — the [SBM93]-style
// sampling decision. Observe/probe only if doing so costs less.
func (o *Optimizer) ValueOfInformation(q *query.SPJ, env Environment) (opt.InfoValue, error) {
	if err := env.validate(); err != nil {
		return opt.InfoValue{}, err
	}
	return opt.MemoryEVPI(o.cat, q, o.opts, env.Memory)
}

// CompileChoicePlan compiles the query into a [GC94]-style choice plan:
// one artifact holding the optimal alternative per memory level set,
// resolved with the observed value at start-up.
func (o *Optimizer) CompileChoicePlan(q *query.SPJ) (*opt.ChoicePlan, error) {
	if err := q.Validate(o.cat); err != nil {
		return nil, err
	}
	return opt.BuildChoicePlan(o.cat, q, o.opts)
}

// CompilePlanCache precomputes LEC plans for several anticipated
// environment distributions; at start-up, Lookup picks the best stored
// plan for the observed distribution without re-optimizing.
func (o *Optimizer) CompilePlanCache(q *query.SPJ, seeds []*stats.Dist) (*opt.PlanCache, error) {
	if err := q.Validate(o.cat); err != nil {
		return nil, err
	}
	return opt.BuildPlanCache(o.cat, q, o.opts, seeds)
}

// SimulationReport summarizes repeated simulated executions of a decision's
// plan in its environment.
type SimulationReport struct {
	eval.Summary
}

// Simulate executes the decision's plan `trials` times in the page-I/O
// simulator, drawing memory from the environment (per-phase Markov traces
// when the environment is dynamic), and reports realized cost statistics.
func (d *Decision) Simulate(trials int, seed int64) (SimulationReport, error) {
	if trials <= 0 {
		return SimulationReport{}, fmt.Errorf("lec: trials must be positive")
	}
	var sampler eval.Sampler
	if d.env.Chain != nil {
		sampler = eval.WalkSampler{Chain: d.env.Chain, Initial: d.env.Memory}
	} else {
		sampler = eval.StaticSampler{Dist: d.env.Memory}
	}
	s, err := eval.Evaluate(d.Plan, sampler, trials, rand.New(rand.NewSource(seed)))
	if err != nil {
		return SimulationReport{}, err
	}
	return SimulationReport{Summary: s}, nil
}

// ExplainWithCosts renders the plan with a per-memory cost profile — the
// level-set view of where the plan is cheap and where it is fragile.
func (d *Decision) ExplainWithCosts() string {
	out := d.Explain()
	out += "cost profile:\n"
	for i := 0; i < d.env.Memory.Len(); i++ {
		mem := d.env.Memory.Value(i)
		out += fmt.Sprintf("  M = %6.0f pages (p=%.2f): Φ = %.0f\n",
			mem, d.env.Memory.Prob(i), plan.Cost(d.Plan, mem))
	}
	return out
}
