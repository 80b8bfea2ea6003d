package opt

import (
	"math"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file is the engine's observability glue: flushing per-run counter
// deltas and phase timings to the Options.Metrics bundle, snapshotting the
// decision-trace recorder onto Results, and accumulating the equi-depth
// bucketing error bound. The hot paths (dp.go, failsoft.go, algd.go) only
// ever pay a nil check when tracing/metrics are disabled.

// beginObs arms the per-run observability state; called from beginRun.
func (ctx *Context) beginObs() {
	if ctx.metrics == nil {
		return
	}
	ctx.metricsMark = ctx.Count
	ctx.runStart = time.Now()
	ctx.costingNanos = 0
	ctx.bucketingNanos = 0
	ctx.bucketErrMark = ascendingSum(ctx.bucketErr)
}

// flushMetrics observes one finished run on the metrics bundle: phase
// timings (enumeration is total wall time minus costing; bucketing is the
// subset of costing spent constructing size distributions) and the counter
// deltas since beginRun.
func (ctx *Context) flushMetrics() {
	m := ctx.metrics
	if m == nil {
		return
	}
	total := time.Since(ctx.runStart).Seconds()
	costing := float64(ctx.costingNanos) / 1e9
	bucketing := float64(ctx.bucketingNanos) / 1e9
	enum := total - costing
	if enum < 0 {
		enum = 0
	}
	m.EnumerationSeconds.Observe(enum)
	m.CostingSeconds.Observe(costing)
	m.BucketingSeconds.Observe(bucketing)
	d, mark := ctx.Count, ctx.metricsMark
	m.Runs.Inc()
	m.CostEvals.Add(float64(d.CostEvals - mark.CostEvals))
	m.Prunes.Add(float64(d.Prunes - mark.Prunes))
	m.MemoHits.Add(float64(d.MemoHits - mark.MemoHits))
	m.Subsets.Add(float64(d.Subsets - mark.Subsets))
	m.SubsetsEnumerated.Add(float64(d.SubsetsEnumerated - mark.SubsetsEnumerated))
	m.SubsetsSkipped.Add(float64(d.SubsetsSkipped - mark.SubsetsSkipped))
	m.JoinSteps.Add(float64(d.JoinSteps - mark.JoinSteps))
	m.NonFiniteCosts.Add(float64(d.NonFiniteCosts - mark.NonFiniteCosts))
	m.Degradations.Add(float64(d.Degradations - mark.Degradations))
	m.PanicsRecovered.Add(float64(d.PanicsRecovered - mark.PanicsRecovered))
	if m.Tier != nil {
		m.Tier.GreedyServed.Add(float64(d.TierGreedyServed - mark.TierGreedyServed))
		m.Tier.Escalations.Add(float64(d.TierEscalations - mark.TierEscalations))
	}
	bErr := ascendingSum(ctx.bucketErr)
	m.BucketErrBound.Add(bErr - ctx.bucketErrMark)
	// Re-mark so a session that flushes twice (e.g. a bucket loop followed
	// by an aggregation) never double-counts a delta.
	ctx.metricsMark = ctx.Count
	ctx.bucketErrMark = bErr
}

// attachTrace snapshots the recorder onto res, stamping the final outcome.
// No-op when tracing is disabled or there is no result.
func (ctx *Context) attachTrace(res *Result) {
	if ctx.trace == nil || res == nil {
		return
	}
	t := ctx.trace.Snapshot()
	t.FinalCost = res.Cost
	t.Rung = res.Rung
	if res.Degraded {
		t.Reason = res.Reason.String()
	}
	t.BucketErrBound = ascendingSum(ctx.bucketErr)
	res.Trace = t
}

// accumBucketErr adds the spread bounds of one ResultSizeDist call's input
// rebuckets to subset s's slot of the session's bucketing error memo
// (Algorithm D only — the other costers never rebucket).
func (ctx *Context) accumBucketErr(s query.RelSet, da, db, sel *stats.Dist) {
	budget := ctx.Opts.RebucketBudget
	if budget <= 0 {
		return
	}
	bx, by, bz := stats.RebucketBudget3(budget)
	*ctx.bucketErr.ref(s) += stats.RebucketErrorBound(da, bx) +
		stats.RebucketErrorBound(db, by) +
		stats.RebucketErrorBound(sel, bz)
}

// traceWatch tracks, for one relation subset, the best and second-best
// (joined relation, method) candidates the DP priced. It lives on the stack
// of the subset callback and is only touched when tracing is enabled.
type traceWatch struct {
	count        int
	bestJ, runJ  int
	bestM, runM  cost.Method
	best, runner float64
}

func newTraceWatch() traceWatch {
	return traceWatch{best: math.Inf(1), runner: math.Inf(1)}
}

// consider offers one priced candidate.
func (w *traceWatch) consider(j int, m cost.Method, c float64) {
	w.count++
	if c < w.best {
		w.runJ, w.runM, w.runner = w.bestJ, w.bestM, w.best
		w.bestJ, w.bestM, w.best = j, m, c
	} else if c < w.runner {
		w.runJ, w.runM, w.runner = j, m, c
	}
}

// event renders the watch as a TraceEvent; ok is false when no candidate
// had a finite cost (the subset stayed unsolved).
func (w *traceWatch) event(ctx *Context, s query.RelSet, depth int, root bool) (obs.TraceEvent, bool) {
	if math.IsInf(w.best, 1) {
		return obs.TraceEvent{}, false
	}
	e := obs.TraceEvent{
		Tables:     subsetTables(ctx, s),
		Depth:      depth,
		Join:       ctx.Q.Tables[w.bestJ],
		Method:     w.bestM.String(),
		Cost:       w.best,
		Candidates: w.count,
		Root:       root,
	}
	if !math.IsInf(w.runner, 1) {
		e.RunnerUpJoin = ctx.Q.Tables[w.runJ]
		e.RunnerUpMethod = w.runM.String()
		e.RunnerUpCost = w.runner
		e.Gap = w.runner - w.best
	}
	return e, true
}

// subsetTables lists the subset's relation names in catalog order.
func subsetTables(ctx *Context, s query.RelSet) []string {
	out := make([]string, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, ctx.Q.Tables[i]) })
	return out
}

// traceScans records the depth-1 access-path decisions: per relation, the
// winning scan and the runner-up among its candidate access paths.
func (ctx *Context) traceScans() {
	tr := ctx.trace
	if tr == nil {
		return
	}
	n := ctx.Q.NumRels()
	for i := 0; i < n; i++ {
		scans := ctx.Scans(i)
		e := obs.TraceEvent{
			Tables:     []string{ctx.Q.Tables[i]},
			Depth:      1,
			Join:       ctx.Q.Tables[i],
			Candidates: len(scans),
			Root:       n == 1,
		}
		best, runner := math.Inf(1), math.Inf(1)
		runnerMethod := ""
		for _, s := range scans {
			c := s.AccessCost()
			if c < best {
				runner, runnerMethod = best, e.Method
				best, e.Method = c, scanLabel(s)
			} else if c < runner {
				runner, runnerMethod = c, scanLabel(s)
			}
		}
		e.Cost = best
		if !math.IsInf(runner, 1) {
			e.RunnerUpJoin = e.Join
			e.RunnerUpMethod = runnerMethod
			e.RunnerUpCost = runner
			e.Gap = runner - best
		}
		tr.Add(e)
	}
}

// scanLabel names an access path for the trace: the method, with the index
// name appended for index scans.
func scanLabel(s *plan.Scan) string {
	if s.Index != "" {
		return s.Method.String() + "(" + s.Index + ")"
	}
	return s.Method.String()
}
