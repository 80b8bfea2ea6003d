package opt

import (
	"math"
	"time"

	"repro/internal/cost"
	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
)

// This file hooks the batched expected-cost kernel (internal/cost/batch.go)
// into the DP inner loop. The search prices every join method for one
// candidate (left, right) pair back to back; a pricer that implements
// batchStepPricer computes all methods' values in one fused pass on the
// first method and serves the rest from the batch, with the wrapper
// accounting exactly the counters the sequential per-method calls would
// have produced. Values are bit-identical to the per-method pricers by
// construction (see the kernel's tests); counters are identical because the
// batch charges evalsPerMethod on every served method and replays the memo
// hits a repeated per-method call would have generated.

// batchStepPricer is a stepPricer that can evaluate every join method for
// one candidate pair in a single pass. joinStepBatch must not touch the
// session counters itself beyond what the underlying statistic lookups do
// naturally (the first sequential call's behavior); the returned accounting
// is applied by priceJoinBatched: evalsPerMethod cost evaluations per served
// method, and hitsPerRepeat memo hits per served method after the first.
type batchStepPricer interface {
	stepPricer
	joinStepBatch(left, right plan.Node, s query.RelSet, phase int) (vals [cost.NumMethods]float64, evalsPerMethod, hitsPerRepeat int)
}

// batchFor returns pr's batch interface, or nil when the pricer has no
// fused form (the utility pricers price method-by-method).
func batchFor(pr stepPricer) batchStepPricer {
	if bp, ok := pr.(batchStepPricer); ok {
		return bp
	}
	return nil
}

// methodBatch is the per-candidate-pair batch state, living on the solve
// loop's stack: the method values, the per-method accounting, and whether
// the fused pass has run.
type methodBatch struct {
	vals  [cost.NumMethods]float64
	evals int
	hits  int
	done  bool
}

// priceJoinBatched is priceJoin over a method batch: same fault-injection
// site, non-finite guard and budget checkpoint per method, but the pricer
// runs once per candidate pair. The batch is computed lazily at the first
// non-injected method — so an injected method perturbs counters exactly as
// it does sequentially (the skipped call charges nothing).
func (ctx *Context) priceJoinBatched(bp batchStepPricer, b *methodBatch, m cost.Method, left, right plan.Node, s query.RelSet, phase int) float64 {
	var t0 time.Time
	if ctx.metrics != nil {
		t0 = time.Now()
	}
	var v float64
	switch faultinject.Check(faultinject.JoinCost) {
	case faultinject.KindNaN:
		v = math.NaN()
	case faultinject.KindInf:
		v = math.Inf(1)
	default:
		if !b.done {
			b.vals, b.evals, b.hits = bp.joinStepBatch(left, right, s, phase)
			b.done = true
		} else {
			ctx.Count.MemoHits += b.hits
		}
		ctx.Count.CostEvals += b.evals
		v = b.vals[m]
	}
	v = ctx.guardCost(v)
	if ctx.metrics != nil {
		ctx.costingNanos += time.Since(t0).Nanoseconds()
	}
	ctx.checkBudget()
	return v
}

// phaseBatches caches one MemBatch per phase distribution, built once per
// compiled pricer and shared across every candidate of the session. release
// returns the batches' scratch vectors to the pool.
type phaseBatches struct {
	mbs []*cost.MemBatch
}

func newPhaseBatches(phases []*stats.Dist) *phaseBatches {
	mbs := make([]*cost.MemBatch, len(phases))
	for i, d := range phases {
		mbs[i] = cost.NewMemBatch(d)
	}
	return &phaseBatches{mbs: mbs}
}

// at clamps the phase index exactly as phaseDistAt does.
func (pb *phaseBatches) at(phase int) *cost.MemBatch {
	if phase < 0 {
		phase = 0
	}
	if phase >= len(pb.mbs) {
		phase = len(pb.mbs) - 1
	}
	return pb.mbs[phase]
}

func (pb *phaseBatches) release() {
	if pb == nil {
		return
	}
	for _, mb := range pb.mbs {
		mb.Release()
	}
	pb.mbs = nil
}

// releasePricerCaches returns a compiled pricer's pooled scratch to the
// buffer pool; called when a pricer is replaced (Reconfigure).
func releasePricerCaches(pr stepPricer) {
	if pc, ok := pr.(phasedCoster); ok {
		pc.batches.release()
	}
}

// joinStepBatch for the fixed-memory pricer: the b = 1 batch.
func (f fixedCoster) joinStepBatch(left, right plan.Node, _ query.RelSet, _ int) ([cost.NumMethods]float64, int, int) {
	var out [cost.NumMethods]float64
	cost.JoinCosts(left.OutPages(), right.OutPages(), f.mem, &out)
	return out, 1, 0
}

// joinStepBatch for the phase-indexed expected-cost pricer: one fused pass
// over the phase distribution's buckets replaces one Dist walk per method.
func (p phasedCoster) joinStepBatch(left, right plan.Node, _ query.RelSet, phase int) ([cost.NumMethods]float64, int, int) {
	mb := p.batches.at(phase)
	var out [cost.NumMethods]float64
	mb.ExpJoinCosts(left.OutPages(), right.OutPages(), &out)
	return out, mb.Len(), 0
}

// joinStepBatch for Algorithm D's distribution-propagating pricer: the
// operand prefix tables are built once and shared across the per-method
// sweeps, and the memory-side tables come precomputed from the session's
// MemTable. Eval accounting uses the raw distribution lengths, exactly as
// the per-method joinStep does.
func (dc distCoster) joinStepBatch(left, right plan.Node, _ query.RelSet, _ int) ([cost.NumMethods]float64, int, int) {
	da := dc.ctx.PagesDistOf(left.Rels())
	db := dc.ctx.PagesDistOf(right.Rels())
	var out [cost.NumMethods]float64
	cost.ExpJoinCosts3(da, db, dc.mt, &out)
	evals := da.Len() + db.Len() + dc.dm.Len()
	return out, evals, dc.repeatHits(left.Rels()) + dc.repeatHits(right.Rels())
}

// repeatHits counts the memo hits one *repeated* PagesDistOf(s) generates:
// one RowDist memo hit, except for the empty-relation singleton, which
// PagesDistOf short-circuits to a point distribution without touching the
// memo.
func (dc distCoster) repeatHits(s query.RelSet) int {
	if s.Len() == 1 && dc.ctx.baseRows[s.Single()] <= 0 {
		return 0
	}
	return 1
}
