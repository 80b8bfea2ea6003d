package opt

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file implements the 2002 follow-up question — *what can we expect?*
// — for objectives beyond expected cost. Decision theory says the agent
// should minimize E[u(Φ)] for a (dis)utility function u of the cost. The
// System R dynamic program survives exactly when the objective decomposes
// additively over plan steps:
//
//   - linear u: E[u(Φ)] = u(E[Φ]) up to affine terms, so LEC DP (Algorithm
//     C) is already optimal — risk neutrality;
//   - exponential u(x) = e^{γx} with *independent* per-phase parameters:
//     E[e^{γΣc_k}] = Π_k E[e^{γc_k}], so minimizing the sum of per-phase
//     certainty equivalents Λ_k = (1/γ)·ln E[e^{γc_k}] is an exact DP —
//     risk aversion (γ > 0) or risk seeking (γ < 0);
//   - general u, or exponential u with a *shared* (static) random
//     parameter: the objective does not decompose, the principle of
//     optimality fails, and the DP can return a suboptimal plan. The
//     ExhaustiveExpUtilityStatic ground truth exposes this gap
//     (experiment E9).

// ceCoster scores each phase by its exponential-utility certainty
// equivalent under that phase's own (independent) memory distribution.
type ceCoster struct {
	ctx    *Context
	phases []*stats.Dist
	gamma  float64
}

// certEquiv returns (1/γ)·ln E[e^{γ·f(M)}] computed stably via log-sum-exp.
func certEquiv(d *stats.Dist, gamma float64, f func(float64) float64) float64 {
	// max for the log-sum-exp shift
	maxE := math.Inf(-1)
	exps := make([]float64, d.Len())
	for i := 0; i < d.Len(); i++ {
		e := gamma * f(d.Value(i))
		exps[i] = e
		if e > maxE {
			maxE = e
		}
	}
	sum := 0.0
	for i := 0; i < d.Len(); i++ {
		sum += d.Prob(i) * math.Exp(exps[i]-maxE)
	}
	return (maxE + math.Log(sum)) / gamma
}

func (c ceCoster) joinStep(m cost.Method, left, right plan.Node, _ query.RelSet, phase int) float64 {
	d := phaseDistAt(c.phases, phase)
	c.ctx.Count.CostEvals += d.Len()
	a, b := left.OutPages(), right.OutPages()
	return certEquiv(d, c.gamma, func(mem float64) float64 { return cost.JoinCost(m, a, b, mem) })
}

func (c ceCoster) sortStep(input plan.Node, phase int) float64 {
	d := phaseDistAt(c.phases, phase)
	c.ctx.Count.CostEvals += d.Len()
	pages := input.OutPages()
	return certEquiv(d, c.gamma, func(mem float64) float64 { return cost.SortCost(pages, mem) })
}

// mvCoster scores each step by E[cost] + λ·Var[cost] under that phase's
// own (independent) memory distribution. Variances of independent phases
// add, so minimizing the per-step sum is an exact DP — the mean-variance
// analogue of the exponential-utility decomposition.
type mvCoster struct {
	ctx    *Context
	phases []*stats.Dist
	lambda float64
}

func (c mvCoster) joinStep(m cost.Method, left, right plan.Node, _ query.RelSet, phase int) float64 {
	d := phaseDistAt(c.phases, phase)
	c.ctx.Count.CostEvals += d.Len()
	a, b := left.OutPages(), right.OutPages()
	mean, v := d.ExpectVariance(func(mem float64) float64 { return cost.JoinCost(m, a, b, mem) })
	return mean + c.lambda*v
}

func (c mvCoster) sortStep(input plan.Node, phase int) float64 {
	d := phaseDistAt(c.phases, phase)
	c.ctx.Count.CostEvals += d.Len()
	pages := input.OutPages()
	mean, v := d.ExpectVariance(func(mem float64) float64 { return cost.SortCost(pages, mem) })
	return mean + c.lambda*v
}

// ExpUtilityDP minimizes the exponential-utility objective
// Σ_k Λ_k(phase k) by dynamic programming, which is exact when each phase's
// memory is drawn independently from phases[k] (extending with the last
// entry). γ > 0 is risk-averse, γ < 0 risk-seeking; γ → 0 recovers
// Algorithm C. γ must be non-zero.
func ExpUtilityDP(cat *catalog.Catalog, q *query.SPJ, opts Options, phases []*stats.Dist, gamma float64) (*Result, error) {
	return runConfig(cat, q, opts, Config{
		Coster:    PhasedParams{Phases: phases},
		Objective: ExponentialUtility{Gamma: gamma},
	})
}

// CertaintyEquivalentIndep evaluates the exponential-utility objective
// Σ_k Λ_k of a finished plan under independent per-phase memory — the
// quantity ExpUtilityDP minimizes.
func CertaintyEquivalentIndep(p plan.Node, phases []*stats.Dist, gamma float64) float64 {
	if len(phases) == 0 {
		panic("opt: no phase distributions")
	}
	distAt := func(i int) *stats.Dist {
		if i < 0 {
			i = 0
		}
		if i >= len(phases) {
			i = len(phases) - 1
		}
		return phases[i]
	}
	total := 0.0
	joinIdx := 0
	plan.Walk(p, func(n plan.Node) {
		switch v := n.(type) {
		case *plan.Scan:
			total += v.AccessCost() // deterministic: Λ = cost
		case *plan.Join:
			a, b := v.Left.OutPages(), v.Right.OutPages()
			total += certEquiv(distAt(joinIdx), gamma, func(mem float64) float64 {
				return cost.JoinCost(v.Method, a, b, mem)
			})
			joinIdx++
		case *plan.Sort:
			if !plan.SatisfiesOrder(v.Input, v.Key_) {
				pages := v.Input.OutPages()
				total += certEquiv(distAt(joinIdx-1), gamma, func(mem float64) float64 {
					return cost.SortCost(pages, mem)
				})
			}
		}
	})
	return total
}

// ExhaustiveExpUtilityIndep minimizes Σ_k Λ_k by brute force; with
// independent phases this must agree with ExpUtilityDP (the DP-validity
// half of E9).
func ExhaustiveExpUtilityIndep(cat *catalog.Catalog, q *query.SPJ, opts Options, phases []*stats.Dist, gamma float64) (*Result, error) {
	return Exhaustive(cat, q, opts, func(p plan.Node) float64 {
		return CertaintyEquivalentIndep(p, phases, gamma)
	})
}

// CertaintyEquivalentStatic evaluates the exponential-utility objective
// (1/γ)·ln E[e^{γ·Φ(p, M)}] when ONE memory value M ~ dm is shared by every
// phase. This does NOT decompose over phases, so no DP computes it exactly.
func CertaintyEquivalentStatic(p plan.Node, dm *stats.Dist, gamma float64) float64 {
	return certEquiv(dm, gamma, func(mem float64) float64 { return plan.Cost(p, mem) })
}

// ExhaustiveExpUtilityStatic minimizes the static (shared-memory)
// exponential-utility objective by brute force — the ground truth that the
// phase-wise DP can miss (the DP-failure half of E9).
func ExhaustiveExpUtilityStatic(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist, gamma float64) (*Result, error) {
	return Exhaustive(cat, q, opts, func(p plan.Node) float64 {
		return CertaintyEquivalentStatic(p, dm, gamma)
	})
}

// RiskProfile summarizes a plan's cost distribution under a static memory
// distribution: the moments and tail behavior a risk-sensitive optimizer
// trades off.
type RiskProfile struct {
	Mean     float64
	Variance float64
	StdDev   float64
	// P95 is the 95th percentile of the cost.
	P95 float64
}

// NewRiskProfile computes a plan's risk profile under dm.
func NewRiskProfile(p plan.Node, dm *stats.Dist) RiskProfile {
	mean, variance := plan.CostVariance(p, dm)
	costDist := dm.Map(func(mem float64) float64 { return plan.Cost(p, mem) })
	return RiskProfile{
		Mean:     mean,
		Variance: variance,
		StdDev:   math.Sqrt(variance),
		P95:      costDist.Quantile(0.95),
	}
}

// MeanStdPlan picks, from a candidate set, the plan minimizing
// E[Φ] + λ·Std[Φ] — the classical mean-risk scalarization. λ = 0 recovers
// the LEC choice.
func MeanStdPlan(cands []plan.Node, dm *stats.Dist, lambda float64) (plan.Node, float64) {
	var best plan.Node
	bestVal := math.Inf(1)
	for _, c := range cands {
		pr := NewRiskProfile(c, dm)
		v := pr.Mean + lambda*pr.StdDev
		if v < bestVal {
			best, bestVal = c, v
		}
	}
	return best, bestVal
}
