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
	// TierReason says why that tier answered: "low-risk" (the LB_1 gap was
	// within DefaultTierMaxGap), "forced" or "certified" for a served greedy
	// plan, or the escalation trigger ("gap", "objective", "fault",
	// "unplannable") for a DP run.
	TierReason string
	// TierGap is the greedy plan's relative expected-cost gap vs an
	// admissible lower bound (greedy/LB − 1), when it was computed: LB_1
	// at the tier gate, the certifying level's LB_k for a "certified"
	// plan, and for the greedy ladder rung after an interrupted left-deep
	// DP, the last complete level's LB_k.
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

// dpWalk is the state of one bottom-up walk over the subset lattice: the DP
// table, the pricer (and its batched form, nil when the pricer has none),
// the best finished root candidate seen so far, and — when a tier
// certificate is armed — the running LB_k of the level being solved.
type dpWalk struct {
	best *subsetTab[dpEntry]
	pr   stepPricer
	bp   batchStepPricer
	full query.RelSet
	root dpEntry // node is nil until a finite-cost root candidate is found

	cert   *tierCert // the armed tier certificate, or nil
	lbMin  float64   // min of OPT(S) + restBound(S) over the level so far
	lbOpen bool      // the level may still certify: lbMin still clears cert
}

func newDPWalk(best *subsetTab[dpEntry], pr stepPricer, n int) dpWalk {
	return dpWalk{best: best, pr: pr, bp: batchFor(pr), full: query.FullSet(n), root: dpEntry{cost: math.Inf(1)}}
}

// offerRoot folds one finished root candidate into the walk.
func (w *dpWalk) offerRoot(node plan.Node, c float64) {
	if c < w.root.cost {
		w.root = dpEntry{node: node, cost: c}
	}
}

// winStep identifies a subset's winning join without materializing it: the
// operands and method of the cheapest candidate. The solvers intern only
// the final winner, once per subset, so a candidate that is later beaten
// never enters the plan arena. scan is set for left-deep winners, right for
// bushy ones.
type winStep struct {
	left  plan.Node
	right plan.Node
	scan  *plan.Scan
	m     cost.Method
	j     int
}

// solveLeftDeep solves one lattice node of the left-deep DP: the best
// extension of every solved S\{j} by relation j, and — at the full set —
// the finished root candidates with the ORDER BY sort charged. The trace
// gets the root candidates in consideration order, then the subset's
// decision event.
func (o *Optimizer) solveLeftDeep(w *dpWalk, s query.RelSet, d int) {
	ctx := o.ctx
	if !ctx.visitSubset() {
		return
	}
	tr := ctx.trace
	var tw traceWatch
	if tr != nil {
		tw = newTraceWatch()
	}
	methods := ctx.Opts.Methods
	bestCost := math.Inf(1)
	var win winStep
	s.ForEach(func(j int) {
		if ctx.stopped() {
			return
		}
		sj := s.Without(j)
		// Under the connected enumerator a disconnected S\{j} was never
		// solved, so its entry is empty and the extension is skipped — which
		// is exactly the csg–cmp restriction: every explored plan's prefixes
		// are connected.
		left := w.best.get(sj)
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
			if w.bp != nil {
				stepCost = ctx.priceJoinBatched(w.bp, &mb, m, left.node, scan, s, d-2)
			} else {
				stepCost = ctx.priceJoin(w.pr, m, left.node, scan, s, d-2)
			}
			total := base + stepCost
			if tr != nil {
				tw.consider(j, m, total)
			}
			if total < bestCost {
				bestCost = total
				win = winStep{left: left.node, scan: scan, m: m, j: j}
			} else {
				ctx.Count.Prunes++
			}
			// At the root, order matters: a slightly costlier join
			// whose sort-merge output satisfies ORDER BY can beat the
			// cheapest join once the final sort is charged. Evaluate
			// every root candidate with the sort included (unless the
			// ablation flag reverts to naive handling).
			if s == w.full && !ctx.Opts.NaiveOrderHandling {
				cand := ctx.NewJoin(left.node, scan, m, s, j)
				finished, added := ctx.FinishPlan(cand)
				ft := total
				if added {
					ft += ctx.priceSort(w.pr, cand, d-2)
				}
				if tr != nil {
					tr.AddRoot(obs.RootCandidate{
						Join: ctx.Q.Tables[j], Method: m.String(),
						Cost: ft, Sorted: added,
					})
				}
				w.offerRoot(finished, ft)
			}
		}
	})
	if tr != nil {
		if e, ok := tw.event(ctx, s, d, s == w.full); ok {
			tr.Add(e)
		}
	}
	if win.scan != nil {
		w.best.put(s, dpEntry{node: ctx.NewJoin(win.left, win.scan, win.m, s, win.j), cost: bestCost})
		if w.lbOpen {
			if b := bestCost + restBound(w.cert.weights, s); b < w.lbMin {
				w.lbMin, w.lbOpen = b, w.cert.clears(b)
			}
		}
	}
}

// runLeftDeep executes the bottom-up dynamic program over the subset
// lattice (paper §2.2) using the engine's pricer, returning the best
// finished left-deep plan (with the ORDER BY sort applied if required).
// With a tier certificate armed it checks LB_k after every complete level
// below n and returns the served greedy plan as soon as one certifies it.
// An interrupted walk leaves o.ladderLB at LB_k of its last complete level
// for the greedy ladder rung to report against.
func (o *Optimizer) runLeftDeep() (*Result, error) {
	ctx, pr := o.ctx, o.pricer
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	if n == 1 {
		return finishSingle(ctx, pr)
	}

	o.dpt.reset(n)
	best := &o.dpt
	// Depth 1: LEC/LSC access paths coincide because scan cost is
	// memory-independent.
	for i := 0; i < n; i++ {
		s := ctx.BestScan(i)
		best.put(query.NewRelSet(i), dpEntry{node: s, cost: s.AccessCost()})
	}
	ctx.traceScans()

	w := newDPWalk(best, pr, n)
	if o.cert.armed {
		w.cert = &o.cert
	}
	done := 1 // the last complete level
	for d := 2; d <= n && !ctx.stopped(); d++ {
		certify := w.cert != nil && d < n
		w.lbMin, w.lbOpen = math.Inf(1), certify
		ctx.forEachLevel(d, func(s query.RelSet) { o.solveLeftDeep(&w, s, d) })
		if ctx.stopped() {
			break
		}
		done = d
		if certify {
			if res := o.tierCertify(w.lbOpen, w.lbMin); res != nil {
				return res, nil
			}
		}
	}

	root, full := w.root, w.full
	if ctx.stopped() {
		o.ladderLB = o.checkedBound(best, done)
		// Anytime: hand back the best complete root candidate found before
		// the interruption, if the walk got that far; OptimizeCtx flags it
		// and otherwise descends the ladder.
		if root.node != nil {
			return &Result{Plan: root.node, Cost: root.cost, Count: ctx.snapshotCount()}, nil
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
	if root.node == nil {
		return nil, fmt.Errorf("opt: no plan found (disconnected lattice?)")
	}
	return &Result{Plan: root.node, Cost: root.cost, Count: ctx.snapshotCount()}, nil
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
