package opt

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
)

// Result is an optimizer's output: the chosen plan and the value of the
// objective it minimized (specific cost for the LSC optimizers, expected
// cost for the LEC ones), together with instrumentation counters.
type Result struct {
	Plan plan.Node
	// Cost is the objective value of Plan (Φ at the fixed parameter values
	// for SystemR; E[Φ] for the LEC optimizers).
	Cost float64
	// Count holds instrumentation totals for the run. When the run shares
	// an engine session (Algorithms A/B, SetCoster loops) the totals are
	// cumulative over the session.
	Count Counters
	// Degraded reports that the search did not run to completion — it was
	// interrupted by a deadline, a budget, a recovered panic, or had to
	// discard non-finite costs — and Plan came from the anytime ladder.
	Degraded bool
	// Reason says why the run degraded (DegradeNone when Degraded is false).
	Reason DegradeReason
	// Rung names the ladder rung that produced a degraded plan: RungFull
	// (empty) for a completed search, RungPartial for the best complete
	// plan the interrupted search had finished, RungGreedy for the greedy
	// planner's plan priced in expectation over the coster's distributions.
	Rung string
	// Enumeration is the lattice enumerator that was actually in effect:
	// the requested Options.Enumeration, except that EnumConnected reports
	// EnumExhaustive when the disconnected-graph fallback engaged.
	Enumeration Enumeration
	// Tier names the planning tier that produced the plan when tiered
	// planning was enabled (Options.Tier ≠ TierDP): TierNameGreedy for the
	// served fast path, TierNameDP after an escalation. Empty when the tier
	// controller did not run.
	Tier string
	// TierReason says why that tier answered: "low-risk"/"forced" for a
	// served greedy plan, or the escalation trigger ("gap", "variance",
	// "level-set", "objective", "fault", "unplannable") for a DP run.
	TierReason string
	// TierGap is the greedy plan's relative expected-cost gap vs the
	// admissible lower bound (greedy/LB − 1), when it was computed.
	TierGap float64
	// Trace is the structured decision trace, populated only when
	// Options.Trace is set. Single-search strategies (SystemR, Algorithms
	// C/C-dynamic/D, the LSC plans) record per-subset decisions and every
	// finished root candidate; Algorithms A and B attach their shared
	// session's trace; the aggregation path leaves it nil.
	Trace *obs.Trace
}

// stepPricer abstracts how one plan-construction step is priced. The
// search engine is *generic* in this interface: plugging in a
// fixed-parameter pricer yields the classical LSC optimizer (Theorem 2.1),
// an expected-cost pricer yields Algorithm C (Theorem 3.3), a phase-indexed
// one the dynamic-parameter variant (Theorem 3.4), a distribution-
// propagating one Algorithm D (§3.6), and the certainty-equivalent and
// mean-variance pricers the 2002 risk objectives. This works because every
// one of these objectives distributes over the sum of per-step costs —
// and because the pricers read only the operands' size statistics, the
// same pricer serves the left-deep, bushy, and pipelined spaces.
type stepPricer interface {
	// joinStep returns the objective contribution of joining left with
	// right using method m, forming subset s, executed as phase `phase`
	// (0-based; in the left-deep walk, phase k is the k-th join).
	// Implementations may use the inputs' size estimates (classical
	// pricers) or their full size distributions (Algorithm D).
	joinStep(m cost.Method, left, right plan.Node, s query.RelSet, phase int) float64
	// sortStep returns the cost of the final ORDER BY sort over input's
	// output, executed after join phase `phase`.
	sortStep(input plan.Node, phase int) float64
}

// dpEntry is the best plan found for one lattice node.
type dpEntry struct {
	node plan.Node
	cost float64
}

// winStep identifies a subset's winning join without materializing it: the
// operands and method of the cheapest candidate. The node itself is interned
// by applySubset during the (single-threaded, task-ordered) merge, which
// keeps the plan arena — and its lock — entirely out of the workers' solve
// loops. scan is set for left-deep winners, right for bushy ones.
type winStep struct {
	left  plan.Node
	right plan.Node
	scan  *plan.Scan
	m     cost.Method
	j     int
}

func (w *winStep) found() bool { return w.scan != nil || w.right != nil }

// subsetResult is everything solving one lattice node produces: the best DP
// entry (cost in entry, node deferred to win), the trace artifacts (the
// subset's decision event and, at the full set, the finished root candidates
// in consideration order), and the best finished root. Solvers write nothing
// shared — the driver applies results in subset order, which is what lets
// the parallel driver replay the sequential walk byte for byte.
type subsetResult struct {
	entry     dpEntry
	win       winStep
	event     obs.TraceEvent
	hasEvent  bool
	roots     []obs.RootCandidate
	rootBest  dpEntry
	rootFound bool
}

// solveLeftDeep solves one lattice node of the left-deep DP: the best
// extension of every solved S\{j} by relation j, and — at the full set —
// the finished root candidates with the ORDER BY sort charged. It reads
// only fully-solved lower levels of best; ctx is the calling worker's
// context (the root's in sequential mode, a shell in parallel mode).
func (o *Optimizer) solveLeftDeep(ctx *Context, pr stepPricer, bp batchStepPricer, best *dpTab, s query.RelSet, d int, full query.RelSet) subsetResult {
	res := subsetResult{entry: dpEntry{cost: math.Inf(1)}, rootBest: dpEntry{cost: math.Inf(1)}}
	if !ctx.visitSubset() {
		return res
	}
	// Gate trace work on the option, not the recorder: parallel worker
	// shells carry a nil recorder (the root flushes their events), but must
	// still produce them.
	wantTrace := ctx.Opts.Trace
	var tw traceWatch
	if wantTrace {
		tw = newTraceWatch()
	}
	methods := ctx.Opts.Methods
	s.ForEach(func(j int) {
		if ctx.stopped() {
			return
		}
		sj := s.Without(j)
		// Under the connected enumerator a disconnected S\{j} was never
		// solved, so its entry is empty and the extension is skipped — which
		// is exactly the csg–cmp restriction: every explored plan's prefixes
		// are connected.
		left := best.get(sj)
		if left.node == nil {
			return
		}
		if !ctx.extensionAllowed(sj, j) {
			return
		}
		scan := ctx.BestScan(j)
		base := left.cost + scan.AccessCost()
		var mb methodBatch
		for _, m := range methods {
			ctx.Count.JoinSteps++
			var stepCost float64
			if bp != nil {
				stepCost = ctx.priceJoinBatched(bp, &mb, m, left.node, scan, s, d-2)
			} else {
				stepCost = ctx.priceJoin(pr, m, left.node, scan, s, d-2)
			}
			total := base + stepCost
			if wantTrace {
				tw.consider(j, m, total)
			}
			if total < res.entry.cost {
				res.entry.cost = total
				res.win = winStep{left: left.node, scan: scan, m: m, j: j}
			} else {
				ctx.Count.Prunes++
			}
			// At the root, order matters: a slightly costlier join
			// whose sort-merge output satisfies ORDER BY can beat the
			// cheapest join once the final sort is charged. Evaluate
			// every root candidate with the sort included (unless the
			// ablation flag reverts to naive handling).
			if s == full && !ctx.Opts.NaiveOrderHandling {
				cand := ctx.NewJoin(left.node, scan, m, s, j)
				finished, added := ctx.FinishPlan(cand)
				ft := total
				if added {
					ft += ctx.priceSort(pr, cand, d-2)
				}
				if wantTrace {
					res.roots = append(res.roots, obs.RootCandidate{
						Join: ctx.Q.Tables[j], Method: m.String(),
						Cost: ft, Sorted: added,
					})
				}
				if ft < res.rootBest.cost {
					res.rootBest = dpEntry{node: finished, cost: ft}
					res.rootFound = true
				}
			}
		}
	})
	if wantTrace {
		if e, ok := tw.event(ctx, s, d, s == full); ok {
			res.event, res.hasEvent = e, true
		}
	}
	return res
}

// applySubset merges one solved subset into the driver's state: trace
// artifacts are flushed to the root recorder (candidates first, then the
// decision event — the order the sequential walk emits them), the winning
// join is interned and the DP table gains the entry, and the best finished
// root is folded in. Called in subset order by both drivers; interning here
// rather than in the solvers keeps the arena out of the parallel workers'
// loops and makes PlansBuilt/MemoHits totals trivially schedule-independent.
func applySubset(ctx *Context, best *dpTab, s query.RelSet, r *subsetResult, rootBest *dpEntry, rootFound *bool) {
	if tr := ctx.trace; tr != nil {
		for _, rc := range r.roots {
			tr.AddRoot(rc)
		}
		if r.hasEvent {
			tr.Add(r.event)
		}
	}
	if r.win.found() {
		if r.win.scan != nil {
			r.entry.node = ctx.NewJoin(r.win.left, r.win.scan, r.win.m, s, r.win.j)
		} else {
			r.entry.node = ctx.newBushyJoin(r.win.left, r.win.right, r.win.m, s)
		}
		best.put(s, r.entry)
	}
	if r.rootFound && r.rootBest.cost < rootBest.cost {
		*rootBest = r.rootBest
		*rootFound = true
	}
}

// runLeftDeep executes the bottom-up dynamic program over the subset
// lattice (paper §2.2) using the engine's pricer, returning the best
// finished left-deep plan (with the ORDER BY sort applied if required).
func (o *Optimizer) runLeftDeep() (*Result, error) {
	ctx, pr := o.ctx, o.pricer
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	if n == 1 {
		return finishSingle(ctx, pr)
	}

	best := o.dpTable(n)
	// Depth 1: LEC/LSC access paths coincide because scan cost is
	// memory-independent.
	for i := 0; i < n; i++ {
		s := ctx.BestScan(i)
		best.put(query.NewRelSet(i), dpEntry{node: s, cost: s.AccessCost()})
	}
	ctx.traceScans()

	full := query.FullSet(n)
	rootBest := dpEntry{cost: math.Inf(1)}
	var rootFound bool
	bp := batchFor(pr)

	for d := 2; d <= n && !ctx.stopped(); d++ {
		ctx.forEachLevel(d, func(s query.RelSet) {
			r := o.solveLeftDeep(ctx, pr, bp, best, s, d, full)
			applySubset(ctx, best, s, &r, &rootBest, &rootFound)
		})
	}
	return o.finishLeftDeep(ctx, pr, best, full, n, rootBest, rootFound)
}

// finishLeftDeep is the left-deep drivers' shared epilogue: the anytime
// salvage paths when the run was interrupted, the naive-order ablation, and
// the normal order-aware return.
func (o *Optimizer) finishLeftDeep(ctx *Context, pr stepPricer, best *dpTab, full query.RelSet, n int, rootBest dpEntry, rootFound bool) (*Result, error) {
	if ctx.stopped() {
		// Anytime: hand back the best complete root candidate found before
		// the interruption, if the walk got that far; OptimizeCtx flags it
		// and otherwise descends the ladder.
		if rootFound {
			return &Result{Plan: rootBest.node, Cost: rootBest.cost, Count: ctx.snapshotCount()}, nil
		}
		if e := best.get(full); e.node != nil {
			finished, added := ctx.FinishPlan(e.node)
			total := e.cost
			if added {
				total += ctx.priceSort(pr, e.node, n-2)
			}
			return &Result{Plan: finished, Cost: total, Count: ctx.snapshotCount()}, nil
		}
		return nil, ctx.stopCause
	}
	if ctx.Opts.NaiveOrderHandling {
		entry := best.get(full)
		if entry.node == nil {
			return nil, fmt.Errorf("opt: no plan found (disconnected lattice?)")
		}
		finished, added := ctx.FinishPlan(entry.node)
		total := entry.cost
		if added {
			total += ctx.priceSort(pr, entry.node, n-2)
		}
		return &Result{Plan: finished, Cost: total, Count: ctx.snapshotCount()}, nil
	}
	if !rootFound {
		return nil, fmt.Errorf("opt: no plan found (disconnected lattice?)")
	}
	return &Result{Plan: rootBest.node, Cost: rootBest.cost, Count: ctx.snapshotCount()}, nil
}

// finishSingle handles single-relation queries: every access path competes,
// with the ORDER BY sort charged when the path does not deliver the order.
func finishSingle(ctx *Context, pr stepPricer) (*Result, error) {
	ctx.traceScans()
	bestCost := math.Inf(1)
	var bestNode plan.Node
	for _, s := range ctx.Scans(0) {
		finished, added := ctx.FinishPlan(s)
		total := s.AccessCost()
		if added {
			total += ctx.priceSort(pr, s, 0)
		}
		if ctx.trace != nil {
			ctx.trace.AddRoot(obs.RootCandidate{
				Join: s.Table, Method: scanLabel(s), Cost: total, Sorted: added,
			})
		}
		if total < bestCost {
			bestCost, bestNode = total, finished
		}
	}
	if bestNode == nil {
		return nil, fmt.Errorf("opt: no access path")
	}
	return &Result{Plan: bestNode, Cost: bestCost, Count: ctx.snapshotCount()}, nil
}
