package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/catalog"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/lec"
)

// costTol is the relative tolerance of every cost comparison.
const costTol = 1e-9

// refs computes the reference plans the served plans are checked against:
// the TierDP optimum for the same query, environment and catalog state,
// from the benchmark's own catalogs and optimizer. Fleet-hot queries
// repeat, so their references are kept per (working-set key, state).
type refs struct {
	sp   *spec
	cats [2]*catalog.Catalog // by catalog state
	opts lec.Options
	memo map[[2]int]*ref
}

// ref keeps only numbers and text, so the references held for fleet-hot
// pin no optimizer memory and add little to the heap the collector scans.
type ref struct {
	cost  float64 // the reference optimum's expected cost
	plan  string  // its plan.Explain rendering, for peer-served plans
	exact float64 // opt.ExhaustiveLEC optimum; NaN until computed
	drift string  // plan text under the wire-rebuilt distribution, once computed
}

func newRefs(sp *spec, seed int64) *refs {
	r := &refs{sp: sp, opts: sp.opts, memo: make(map[[2]int]*ref)}
	r.opts.Tier = lec.TierDP
	r.cats[0] = buildCatalog(sp, seed, 0)
	r.cats[1] = buildCatalog(sp, seed, 1)
	return r
}

func (r *refs) get(ctx context.Context, o *op) (*ref, error) {
	if o.key >= 0 {
		if e, ok := r.memo[[2]int{o.key, o.state}]; ok {
			return e, nil
		}
	}
	dec, err := r.optimize(ctx, o, o.req.Env)
	if err != nil {
		return nil, err
	}
	e := &ref{cost: dec.ExpectedCost, plan: plan.Explain(dec.Plan), exact: math.NaN()}
	if o.key >= 0 {
		r.memo[[2]int{o.key, o.state}] = e
	}
	return e, nil
}

// optimize is a direct engine run of the request as a service runs it:
// the SQL bound against the catalog, with the explicit selectivities.
func (r *refs) optimize(ctx context.Context, o *op, env lec.Environment) (*lec.Decision, error) {
	cat := r.cats[o.state]
	q, err := sqlparse.ParseAndBind(o.req.SQL, cat)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	for i := range q.Joins {
		q.Joins[i].Selectivity = o.req.JoinSels[i]
	}
	for i := range q.Selections {
		q.Selections[i].Selectivity = o.req.SelectionSels[i]
	}
	dec, err := lec.NewWithOptions(cat, r.opts).OptimizeContext(ctx, q, env, o.req.Strategy)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return dec, nil
}

// driftPlan is the plan the owner computes for a peer lookup: the fleet
// rebuilds the memory distribution from the wire with stats.New, which
// renormalizes the probabilities, so the owner optimizes a distribution
// that differs from the client's in the last ulp. Where plans tie, that
// can flip the plan. See README.md, "Known defect".
func (r *refs) driftPlan(ctx context.Context, o *op, e *ref) (string, error) {
	if e.drift == "" {
		m := o.req.Env.Memory
		wire, err := stats.New(m.Support(), m.Probs())
		if err != nil {
			return "", err
		}
		dec, err := r.optimize(ctx, o, lec.Environment{Memory: wire})
		if err != nil {
			return "", err
		}
		e.drift = plan.Explain(dec.Plan)
	}
	return e.drift, nil
}

// exactCost is the brute-force LEC optimum (Theorem 3.3's reference).
func (r *refs) exactCost(o *op, e *ref) (float64, error) {
	if math.IsNaN(e.exact) {
		res, err := opt.ExhaustiveLEC(r.cats[o.state], o.q, opt.Options{}, o.req.Env.Memory)
		if err != nil {
			return 0, fmt.Errorf("exhaustive: %w", err)
		}
		e.exact = res.Cost
	}
	return e.exact, nil
}

// check runs every output check on one served read. It returns the served
// expected cost over the reference's, which is defined whenever a plan
// came back, whether a peer plan differed from the reference only through
// the known distribution drift, and the first failed check.
func (r *refs) check(ctx context.Context, o *op, s served) (ratio float64, drifted bool, err error) {
	if s.err != nil {
		return math.NaN(), false, s.err
	}
	e, err := r.get(ctx, o)
	if err != nil {
		return math.NaN(), false, err
	}
	refCost := e.cost
	var cost float64
	greedy := false
	if s.dec != nil {
		cost = s.dec.ExpectedCost
		greedy = s.dec.Tier == "greedy"
		if err := checkLocal(o.q, s.dec, o); err != nil {
			return cost / refCost, false, err
		}
	} else {
		cost = s.wire.ExpectedCost
		greedy = s.wire.Tier == "greedy"
		if s.wire.Degraded {
			return cost / refCost, false, fmt.Errorf("degraded peer plan: %s", s.wire.DegradeReason)
		}
		// A peer's plan arrives only as text: it must render exactly as
		// the reference plan does, or exactly as the owner's engine
		// renders it under the drifted distribution it received.
		if want := e.plan; !strings.HasSuffix(s.wire.Plan, want) {
			alt, err := r.driftPlan(ctx, o, e)
			if err != nil {
				return cost / refCost, false, err
			}
			if !strings.HasSuffix(s.wire.Plan, alt) {
				return cost / refCost, false, fmt.Errorf("peer plan differs from the reference:\n%s\nwant:\n%s", s.wire.Plan, want)
			}
			drifted = true
		}
	}
	ratio = cost / refCost
	if greedy {
		// The tier gate serves greedy only within (1+MaxGap)·OPT.
		if limit := (1 + opt.DefaultTierMaxGap) * refCost * (1 + costTol); cost > limit {
			return ratio, drifted, fmt.Errorf("greedy plan costs %v, above (1+MaxGap)·OPT = %v", cost, limit)
		}
	} else if !near(cost, refCost) {
		return ratio, drifted, fmt.Errorf("served E[cost] %v, reference optimum %v", cost, refCost)
	}
	if o.exact {
		ex, err := r.exactCost(o, e)
		if err != nil {
			return ratio, drifted, err
		}
		if !near(cost, ex) {
			return ratio, drifted, fmt.Errorf("served E[cost] %v, exhaustive LEC %v", cost, ex)
		}
	}
	return ratio, drifted, nil
}

// checkLocal checks a Decision the client holds in full.
func checkLocal(q *query.SPJ, d *lec.Decision, o *op) error {
	if d.Degraded {
		return fmt.Errorf("degraded plan: %v", d.DegradeReason)
	}
	if err := plan.Validate(d.Plan); err != nil {
		return err
	}
	if got, want := d.Plan.Rels(), query.FullSet(q.NumRels()); got != want {
		return fmt.Errorf("plan covers relations %v, query has %v", got, want)
	}
	if again := plan.ExpCost(d.Plan, o.req.Env.Memory); !near(d.ExpectedCost, again) {
		return fmt.Errorf("reported E[cost] %v, re-priced %v", d.ExpectedCost, again)
	}
	return nil
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= costTol*math.Max(math.Abs(a), math.Abs(b))
}
