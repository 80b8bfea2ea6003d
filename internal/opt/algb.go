package opt

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// topEntry is one of the c best plans for a lattice node.
type topEntry struct {
	node plan.Node
	cost float64
}

// mergeTopC combines the top plans for the left input (sorted ascending by
// cost) with the access paths for the right input (also sorted), keeping
// only pairs (i, k) with i·k ≤ c (1-indexed). Proposition 3.1: the pair
// (s_i, a_k) is dominated by at least i·k − 1 cheaper combinations, so pairs
// with i·k > c can never be in the top c; at most c + c·ln c pairs survive
// the cut. stepCost is the join-method cost, identical for every pair.
func mergeTopC(ctx *Context, left []topEntry, scans []topEntry, stepCost float64, c int,
	build func(l, r topEntry) plan.Node) []topEntry {
	var out []topEntry
	combos := 0
	for i := 1; i <= len(left) && i <= c; i++ {
		maxK := c / i
		for k := 1; k <= len(scans) && k <= maxK; k++ {
			combos++
			l, r := left[i-1], scans[k-1]
			out = append(out, topEntry{
				node: build(l, r),
				cost: l.cost + r.cost + stepCost,
			})
		}
	}
	ctx.Count.MergeCombos += combos
	if combos > ctx.Count.MaxMergeCombos {
		ctx.Count.MaxMergeCombos = combos
	}
	return out
}

// sortTruncate orders entries by cost (ties broken on the structural key
// for determinism) and keeps the best c; the rest count as prunes.
func sortTruncate(ctx *Context, entries []topEntry, c int) []topEntry {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].cost != entries[j].cost {
			return entries[i].cost < entries[j].cost
		}
		return entries[i].node.Key() < entries[j].node.Key()
	})
	if len(entries) > c {
		ctx.Count.Prunes += len(entries) - c
		entries = entries[:c]
	}
	return entries
}

// runTopC runs the top-c variant of the System R dynamic program
// (paper §3.3) and returns the best c finished root plans, ascending by
// cost under the engine's pricer. The per-relation scan lists and the
// per-subset list table are engine scratch, reused across Algorithm B's
// bucket invocations.
func (o *Optimizer) runTopC(c int) ([]topEntry, error) {
	ctx, pr := o.ctx, o.pricer
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	scanLists := o.scanLists(c)
	if n == 1 {
		var roots []topEntry
		for _, e := range scanLists[0] {
			roots = append(roots, finishEntry(ctx, pr, e, 0))
		}
		return sortTruncate(ctx, roots, c), nil
	}

	o.topt.reset(n)
	lists := &o.topt
	for i := 0; i < n; i++ {
		lists.put(query.NewRelSet(i), scanLists[i])
	}
	full := query.FullSet(n)
	var roots []topEntry
	methods := ctx.Opts.Methods

	for d := 2; d <= n && !ctx.stopped(); d++ {
		ctx.forEachLevel(d, func(s query.RelSet) {
			if !ctx.visitSubset() {
				return
			}
			var merged []topEntry
			s.ForEach(func(j int) {
				if ctx.stopped() {
					return
				}
				sj := s.Without(j)
				// Empty under the connected enumerator when S\{j} is
				// disconnected — the same csg restriction as the single-best DP.
				left := lists.get(sj)
				if len(left) == 0 || !ctx.extensionAllowed(sj, j) {
					return
				}
				for _, m := range methods {
					ctx.Count.JoinSteps++
					stepCost := ctx.priceJoin(pr, m, left[0].node, scanLists[j][0].node, s, d-2)
					merged = append(merged, mergeTopC(ctx, left, scanLists[j], stepCost, c,
						func(l, r topEntry) plan.Node {
							return ctx.NewJoin(l.node, r.node.(*plan.Scan), m, s, j)
						})...)
				}
			})
			if s == full {
				for _, e := range merged {
					roots = append(roots, finishEntry(ctx, pr, e, d-2))
				}
			}
			lists.put(s, sortTruncate(ctx, merged, c))
		})
	}
	if ctx.stopped() && len(roots) == 0 {
		// Anytime: an interrupted top-c search with no finished roots has
		// nothing to hand back; the caller's ladder takes over.
		return nil, ctx.stopCause
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("opt: no plan found")
	}
	return sortTruncate(ctx, roots, c), nil
}

// finishEntry applies the ORDER BY sort to a root candidate, charging the
// sort cost when the plan's order does not already satisfy it.
func finishEntry(ctx *Context, pr stepPricer, e topEntry, phase int) topEntry {
	finished, added := ctx.FinishPlan(e.node)
	total := e.cost
	if added {
		total += ctx.priceSort(pr, e.node, phase)
	}
	return topEntry{node: finished, cost: total}
}

// AlgorithmB implements paper §3.3: generate the top c plans for each of
// the b bucket representatives of the memory distribution, then pick the
// candidate with the least expected cost under the full distribution. It
// dominates Algorithm A (its candidate pool is a superset) but still does
// not always find the exact LEC plan. The bucket searches run under rc and
// Options.Budget with the same shared-session budget as AlgorithmA.
func AlgorithmB(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	cands, counters, tr, deg, err := algorithmBCandidates(rc, cat, q, opts, dm)
	if err != nil {
		return nil, err
	}
	return pickPool("B", cands, counters, tr, deg, dm)
}

// algorithmBCandidates returns the deduplicated union of the top-c plans
// across all b bucket representatives (up to c·b plans). All b searches
// run on one engine session, so the memo tables, plan arena, and top-c
// scratch are shared instead of rebuilt per bucket. One beginRun arms the
// whole session: the stop cause is sticky across buckets, so an
// interruption in bucket i halts buckets i+1..b too. The anytime guarantee
// holds at the pool level — if the interrupted search produced no finished
// root at all, the greedy fallback contributes the guaranteed candidate.
func algorithmBCandidates(rc context.Context, cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) ([]plan.Node, Counters, *obs.Trace, degradeInfo, error) {
	var deg degradeInfo
	// Same as algorithm A: the bucket searches never tier individually.
	opts.Tier = TierDP
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: FixedParams{Mem: dm.Value(0)}})
	if err != nil {
		return nil, Counters{}, nil, deg, err
	}
	eng.adopt(rc)
	eng.ctx.beginRun(rc)
	// The session never passes through OptimizeCtx, so the run is flushed
	// to the metrics bundle here, whatever path exits the bucket loop.
	defer eng.ctx.flushMetrics()
	c := eng.ctx.Opts.TopC
	seen := map[string]bool{}
	var cands []plan.Node
	for i := 0; i < dm.Len() && !eng.ctx.stopped(); i++ {
		if err := eng.SetCoster(FixedParams{Mem: dm.Value(i)}); err != nil {
			return nil, eng.Stats(), eng.traceSnapshot(), deg, err
		}
		roots, err := eng.runTopCGuarded(c)
		if err != nil {
			if eng.ctx.stopped() {
				break
			}
			return nil, eng.Stats(), eng.traceSnapshot(), deg, fmt.Errorf("opt: algorithm B at m=%v: %w", dm.Value(i), err)
		}
		for _, r := range roots {
			if key := r.node.Key(); !seen[key] {
				seen[key] = true
				cands = append(cands, r.node)
			}
		}
	}
	if eng.ctx.stopped() {
		deg.note(eng.ctx.degradeReason(), RungPartial)
		if len(cands) == 0 {
			fb, ferr := eng.fallbackGuarded()
			if ferr != nil {
				return nil, eng.Stats(), eng.traceSnapshot(), deg, fmt.Errorf("%w (fallback also failed: %v)", causeOrBudget(eng.ctx.stopCause), ferr)
			}
			deg.rung = RungGreedy
			cands = append(cands, fb.Plan)
		}
		eng.ctx.Count.Degradations++
	} else if eng.ctx.sawNonFinite() {
		if len(cands) == 0 {
			return nil, eng.Stats(), eng.traceSnapshot(), deg, ErrNonFinite
		}
		deg.note(DegradeNonFinite, RungFull)
		eng.ctx.Count.Degradations++
	}
	return cands, eng.Stats(), eng.traceSnapshot(), deg, nil
}

// runTopCGuarded is runTopC under the same recover discipline as the
// single-plan searches: a panicking coster interrupts the session instead of
// escaping Algorithm B's bucket loop.
func (o *Optimizer) runTopCGuarded(c int) (roots []topEntry, err error) {
	defer func() {
		if p := recover(); p != nil {
			o.ctx.Count.PanicsRecovered++
			pe := panicError{val: p}
			o.ctx.interrupt(pe)
			roots, err = nil, pe
		}
	}()
	return o.runTopC(c)
}

// TopCPlans exposes the top-c plans at a single fixed memory value,
// ascending by cost — used by tests to check Proposition 3.1 and the
// correctness of the top-c lists against exhaustive enumeration.
func TopCPlans(cat *catalog.Catalog, q *query.SPJ, opts Options, mem float64, c int) ([]plan.Node, []float64, Counters, error) {
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: FixedParams{Mem: mem}})
	if err != nil {
		return nil, nil, Counters{}, err
	}
	plans, costs, err := eng.OptimizeTop(c)
	return plans, costs, eng.Stats(), nil
}

// MergeBound returns the Proposition 3.1 upper bound c + c·ln c on the
// number of combinations examined per (input, join-method) merge.
func MergeBound(c int) float64 {
	if c <= 1 {
		return float64(c)
	}
	return float64(c) + float64(c)*math.Log(float64(c))
}
