// Package reopt simulates the mid-execution re-optimization strategy of
// [KD98], which the paper contrasts LEC optimization with in §2.3: "the
// expected statistics are compared with the measured statistics. If there
// is a significant difference, the query execution is suspended and
// re-optimization is performed using the more accurate measured value."
// Work done before the restart is sunk cost.
//
// This gives the LEC experiments a run-time adaptive baseline: LEC commits
// to one plan chosen from the distribution; re-optimization chases the
// observed value and pays for restarts.
package reopt

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/query"
)

// Policy tunes the re-optimization trigger.
type Policy struct {
	// Threshold is the relative memory deviation |observed−assumed|/assumed
	// that suspends execution (default 0.5, i.e. a 2× change).
	Threshold float64
	// MaxRestarts bounds the restarts per execution (default 2).
	MaxRestarts int
	// Metrics, when non-nil, receives per-execution observability counters
	// (runs, restarts, sunk I/O, degraded executions).
	Metrics *obs.ReoptMetrics
}

func (p Policy) withDefaults() Policy {
	if p.Threshold <= 0 {
		p.Threshold = 0.5
	}
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 2
	}
	return p
}

// Outcome reports one simulated adaptive execution.
type Outcome struct {
	// Total is the realized I/O including sunk work from restarts.
	Total float64
	// Sunk is the discarded portion.
	Sunk float64
	// Restarts counts re-optimizations that restarted execution.
	Restarts int
	// Degraded reports that the adaptive execution was cut short: the
	// request context ended at a restart point, so the current plan ran to
	// completion without the re-optimization the policy called for. Total
	// is still a faithful realized cost — of a less adaptive execution.
	Degraded bool
	// Stats accumulates the engine's search counters across the initial
	// optimization AND every restart's re-optimization — summing, not
	// keeping the last run's counters, so the restart loop's true
	// optimization work is not under-reported.
	Stats opt.Stats
}

// Run simulates executing the query with [KD98]-style re-optimization:
// optimize at assumedMem, execute phase by phase against the memory trace,
// and at each phase boundary compare the observed memory with the
// assumption; on significant deviation, re-optimize at the observed value
// and restart from scratch (sunk work is charged). The trace advances with
// wall-clock phases across restarts.
func Run(cat *catalog.Catalog, q *query.SPJ, opts opt.Options, assumedMem float64,
	tr eval.Trace, policy Policy) (Outcome, error) {
	return RunContext(context.Background(), cat, q, opts, assumedMem, tr, policy)
}

// RunContext is Run under a request context and the Options.Budget: both the
// initial optimization and every re-optimization triggered by a restart are
// fail-soft. A budget that trips mid-simulation does not abort the adaptive
// execution — the (re)optimizer's degraded fallback plan is executed exactly
// as a full-search plan would be, which mirrors how a real system must keep
// running queries even when the optimizer is under pressure.
//
// Context cancellation propagates between restarts: when the context has
// ended by the time a deviation calls for a restart, RunContext stops
// adapting and returns the partial Outcome with Degraded set rather than
// spending the remaining MaxRestarts on a request nobody is waiting for.
func RunContext(ctx context.Context, cat *catalog.Catalog, q *query.SPJ, opts opt.Options, assumedMem float64,
	tr eval.Trace, policy Policy) (Outcome, error) {
	policy = policy.withDefaults()
	// systemR is the classical optimizer at one memory value, fail-soft
	// under ctx and opts.Budget.
	systemR := func(mem float64) (*opt.Result, error) {
		eng, err := opt.NewOptimizer(cat, q, opts, opt.Config{Coster: opt.FixedParams{Mem: mem}})
		if err != nil {
			return nil, err
		}
		return eng.OptimizeCtx(ctx)
	}
	res, err := systemR(assumedMem)
	if err != nil {
		return Outcome{}, err
	}
	var out Outcome
	out.Stats.Add(res.Count)
	if m := policy.Metrics; m != nil {
		m.Runs.Inc()
		if res.Degraded {
			m.DegradedRuns.Inc()
		}
	}
	clock := 0 // wall-clock phase index into the trace
	for {
		phases, err := eval.RunPhases(res.Plan, shiftTrace(tr, clock))
		if err != nil {
			return Outcome{}, err
		}
		restarted := false
		var done float64
		for k := range phases {
			observed := traceAt(tr, clock)
			if deviation(observed, assumedMem) > policy.Threshold && out.Restarts < policy.MaxRestarts {
				// A restart is a fresh optimization; if the request context
				// has already ended there is no budget left for one. Return
				// the partial outcome as degraded instead of charging ahead
				// to MaxRestarts on a dead context.
				if ctx.Err() != nil {
					out.Total += done
					out.Degraded = true
					return out, nil
				}
				// Suspend before running phase k; what ran so far is sunk.
				out.Restarts++
				out.Sunk += done
				out.Total += done
				assumedMem = observed
				res, err = systemR(observed)
				if err != nil {
					return Outcome{}, err
				}
				// Accumulate — don't overwrite — the re-optimization's
				// search counters, or restart loops under-report their work.
				out.Stats.Add(res.Count)
				if m := policy.Metrics; m != nil {
					m.Restarts.Inc()
					m.SunkIO.Add(done)
					if res.Degraded {
						m.DegradedRuns.Inc()
					}
				}
				restarted = true
				break
			}
			done += phases[k].Total()
			clock++
		}
		if restarted {
			continue
		}
		out.Total += done
		return out, nil
	}
}

// Evaluate repeats Run over sampled traces and reports the mean realized
// cost and mean restarts.
func Evaluate(cat *catalog.Catalog, q *query.SPJ, opts opt.Options, assumedMem float64,
	sampler eval.Sampler, trials int, rng *rand.Rand, policy Policy) (meanCost, meanRestarts float64, err error) {
	if trials <= 0 {
		return 0, 0, fmt.Errorf("reopt: trials must be positive")
	}
	phases := q.NumRels() - 1
	if phases < 1 {
		phases = 1
	}
	// Traces must be long enough to cover restarts.
	need := phases * (1 + 4)
	sumCost, sumRestarts := 0.0, 0.0
	for i := 0; i < trials; i++ {
		tr := sampler.Sample(rng, need)
		o, err := Run(cat, q, opts, assumedMem, tr, policy)
		if err != nil {
			return 0, 0, err
		}
		sumCost += o.Total
		sumRestarts += float64(o.Restarts)
	}
	return sumCost / float64(trials), sumRestarts / float64(trials), nil
}

func deviation(observed, assumed float64) float64 {
	if assumed <= 0 {
		return math.Inf(1)
	}
	return math.Abs(observed-assumed) / assumed
}

// traceAt reads the trace with last-value extension.
func traceAt(tr eval.Trace, i int) float64 {
	if len(tr) == 0 {
		return 1
	}
	if i >= len(tr) {
		i = len(tr) - 1
	}
	if i < 0 {
		i = 0
	}
	return tr[i]
}

// shiftTrace returns the trace as seen from wall-clock phase `from`.
func shiftTrace(tr eval.Trace, from int) eval.Trace {
	if from <= 0 || len(tr) == 0 {
		return tr
	}
	if from >= len(tr) {
		return eval.Trace{tr[len(tr)-1]}
	}
	return tr[from:]
}
