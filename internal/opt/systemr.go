package opt

import (
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// fixedCoster evaluates steps at one fixed memory value — the classical
// optimizer's view of the world.
type fixedCoster struct {
	ctx *Context
	mem float64
}

func (f fixedCoster) joinStep(m cost.Method, left, right plan.Node, _ query.RelSet, _ int) float64 {
	f.ctx.Count.CostEvals++
	return cost.JoinCost(m, left.OutPages(), right.OutPages(), f.mem)
}

func (f fixedCoster) sortStep(input plan.Node, _ int) float64 {
	f.ctx.Count.CostEvals++
	return cost.SortCost(input.OutPages(), f.mem)
}

// SystemR runs the classical bottom-up dynamic program of [SAC79] at a
// single fixed memory value and returns the least-specific-cost (LSC)
// left-deep plan (paper §2.2, Theorem 2.1). It is also the b = 1 special
// case of LEC optimization (paper §4: "the traditional approach is
// essentially our approach restricted to one bucket").
func SystemR(cat *catalog.Catalog, q *query.SPJ, opts Options, mem float64) (*Result, error) {
	return runConfig(cat, q, opts, Config{Coster: FixedParams{Mem: mem}})
}

// phaseDistAt clamps a phase index into the distribution list — sequences
// shorter than the plan's phase count extend with their last entry, so a
// single static distribution is the one-phase special case.
func phaseDistAt(phases []*stats.Dist, phase int) *stats.Dist {
	if phase < 0 {
		phase = 0
	}
	if phase >= len(phases) {
		phase = len(phases) - 1
	}
	return phases[phase]
}

// phasedCoster evaluates each join phase in expectation under that phase's
// own memory distribution. With a single phase distribution this is
// Algorithm C's static model (paper §3.4); with the unrolled Markov-chain
// marginals it is the dynamic-parameter variant (paper §3.5).
type phasedCoster struct {
	ctx    *Context
	phases []*stats.Dist
	// batches holds the per-phase clamped bucket vectors of the fused
	// all-methods kernel (see batch.go); built once per compile.
	batches *phaseBatches
}

func (p phasedCoster) joinStep(m cost.Method, left, right plan.Node, _ query.RelSet, phase int) float64 {
	// "If we consider a probability distribution over b different memory
	// sizes, this computation requires b evaluations of the cost formula."
	d := phaseDistAt(p.phases, phase)
	p.ctx.Count.CostEvals += d.Len()
	return cost.ExpJoinCostMem(m, left.OutPages(), right.OutPages(), d)
}

func (p phasedCoster) sortStep(input plan.Node, phase int) float64 {
	d := phaseDistAt(p.phases, phase)
	p.ctx.Count.CostEvals += d.Len()
	pages := input.OutPages()
	return d.Expect(func(mem float64) float64 { return cost.SortCost(pages, mem) })
}

// AlgorithmC runs the expected-cost dynamic program of paper §3.4 over a
// static memory distribution and returns the exact LEC left-deep plan
// (Theorem 3.3).
func AlgorithmC(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	return runConfig(cat, q, opts, Config{Coster: StaticParams{Mem: dm}})
}

// AlgorithmCDynamic runs the expected-cost dynamic program when memory
// changes between join phases according to a Markov chain (paper §3.5):
// the initial distribution is associated with phase 0 and the transition
// probabilities produce the distribution for each later phase. Under the
// paper's assumptions (memory constant within a phase, transition
// probabilities independent of time) it returns the exact LEC left-deep
// plan (Theorem 3.4).
func AlgorithmCDynamic(cat *catalog.Catalog, q *query.SPJ, opts Options, chain *stats.Chain, initial *stats.Dist) (*Result, error) {
	return runConfig(cat, q, opts, Config{Coster: MarkovParams{Chain: chain, Initial: initial}})
}

// PhaseDistsFor exposes the per-phase distributions AlgorithmCDynamic uses,
// for evaluation and testing.
func PhaseDistsFor(q *query.SPJ, chain *stats.Chain, initial *stats.Dist) []*stats.Dist {
	phases := q.NumRels() - 1
	if phases < 1 {
		phases = 1
	}
	return chain.PhaseDists(initial, phases)
}
