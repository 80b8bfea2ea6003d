package opt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/query"
)

// This file implements the level-synchronized parallel DP core. The lattice
// of relation subsets decomposes into levels by subset size, and a size-d
// subset's solution depends only on sizes < d — so each level's subsets are
// independent of one another and can be solved concurrently, with a barrier
// (and a deterministic, task-ordered merge) between levels. Determinism is
// the design's first constraint: Parallelism: 1 and Parallelism: N produce
// byte-identical plans, costs, Stats and traces for runs that complete,
// because
//
//   - each subset's work is a pure function of the fully-merged lower
//     levels, evaluated with the same inner iteration orders as the
//     sequential DP;
//   - results are stored by task index and merged into the DP table (and
//     the trace) in task order, which is the sequential visiting order (the
//     effective enumerator's ascending level order: query.SubsetsOfSize for
//     the exhaustive sweep, the cached csg levels for the connected one);
//   - counters are sharded per worker shell and merged with the commutative
//     Counters.Add; memo-hit totals are schedule-independent because the
//     shared memos compute each subset exactly once under the run's locks
//     (hits = calls − distinct subsets, however the calls interleave);
//   - the arena interns one canonical node per structure, and within a
//     level each candidate structure is built by exactly one task, so
//     PlansBuilt/ArenaHits totals do not depend on worker interleaving.
//
// Only interruption *trip points* (budget, cancellation) are
// schedule-dependent under Parallelism ≥ 2, because the shared meters
// advance in schedule order; completed runs never observe them.

// parRun is the shared state of one level-synchronized parallel run: the
// locks guarding the session's shared structures, the cooperative-stop
// flag, the first interruption cause, and the run-total meters the shared
// budget is enforced against. Lock order: arenaMu before memoMu (NewJoin
// holds the arena lock while reading the size memos); neither is ever taken
// while holding the other in the opposite order.
type parRun struct {
	arenaMu sync.Mutex // guards ctx.arena (plan interning) and node init
	memoMu  sync.Mutex // guards subsetRows/subsetPages/subsetRowDist/bucketErr

	stop    atomic.Bool // cooperative stop: set by the first interruption
	causeMu sync.Mutex
	cause   error // first interruption cause across all workers

	// Shared budget meters. The session totals at run start are the bases;
	// workers publish their private counter deltas to the atomics at every
	// checkpoint, so base + atomic is the run-wide total the budget is
	// compared against.
	evalsBase   int
	subsetsBase int
	evals       atomic.Int64
	subsets     atomic.Int64

	busyNanos atomic.Int64 // summed per-worker busy time (metrics only)
}

// setCause records the first interruption cause and raises the stop flag.
func (p *parRun) setCause(cause error) {
	p.causeMu.Lock()
	if p.cause == nil {
		p.cause = cause
	}
	p.causeMu.Unlock()
	p.stop.Store(true)
}

// firstCause returns the first recorded interruption cause, if any.
func (p *parRun) firstCause() error {
	p.causeMu.Lock()
	defer p.causeMu.Unlock()
	return p.cause
}

// workerCount resolves Options.Parallelism to the worker count: 0 and 1 are
// the sequential DP, N ≥ 2 the parallel driver.
func (o *Optimizer) workerCount() int {
	if w := o.ctx.Opts.Parallelism; w > 1 {
		return w
	}
	return 1
}

// runLeftDeepParallel is the level-synchronized parallel form of
// runLeftDeep.
func (o *Optimizer) runLeftDeepParallel(workers int) (*Result, error) {
	return o.runLevelSync(workers, false)
}

// runBushyParallel is the level-synchronized parallel form of runBushy.
func (o *Optimizer) runBushyParallel(workers int) (*Result, error) {
	return o.runLevelSync(workers, true)
}

// newWorkerShell builds one worker's private view of the session: a value
// copy of the root context sharing the catalog, query, memos, arena and
// parallel run state through pointers, with zeroed counters, marks and
// timing shards, and no recorder (the root flushes trace artifacts during
// the merge). The shell's counter shard is merged into the root with the
// commutative Counters.Add after the level loop.
func newWorkerShell(root *Context) *Context {
	sh := *root
	sh.Count = Counters{}
	sh.trace = nil
	sh.stopCause = nil
	sh.pollCountdown = 1
	sh.nonFiniteMark = 0
	sh.metricsMark = Counters{}
	sh.costingNanos = 0
	sh.bucketingNanos = 0
	sh.parEvalMark = 0
	sh.parSubsetMark = 0
	return &sh
}

// runLevelSync is the level-synchronized parallel DP driver for both the
// left-deep and bushy spaces. Per lattice level it collects the level's
// subsets in sequential visiting order, fans them out to min(workers,
// subsets) goroutines pulling tasks from a shared cursor, waits at the
// level barrier, and merges the per-task results into the DP table, the
// trace and the root-candidate fold *in task order*. The barrier gives the
// happens-before edge between one level's writes and the next level's
// reads; the task-order merge makes every completed run byte-identical to
// the sequential walk (see the file comment for the full argument).
func (o *Optimizer) runLevelSync(workers int, bushy bool) (*Result, error) {
	ctx := o.ctx
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	if n == 1 {
		return finishSingle(ctx, o.pricer)
	}
	best := o.dpTable(n)
	for i := 0; i < n; i++ {
		s := ctx.BestScan(i)
		best.put(query.NewRelSet(i), dpEntry{node: s, cost: s.AccessCost()})
	}
	if !bushy {
		ctx.traceScans()
	}
	full := query.FullSet(n)
	rootBest := dpEntry{cost: math.Inf(1)}
	var rootFound bool

	p := &parRun{evalsBase: ctx.Count.CostEvals, subsetsBase: ctx.Count.Subsets}
	ctx.par = p
	defer func() { ctx.par = nil }()

	shells := make([]*Context, workers)
	pricers := make([]stepPricer, workers)
	batchers := make([]batchStepPricer, workers)
	for w := 0; w < workers; w++ {
		shells[w] = newWorkerShell(ctx)
		pricers[w] = o.compileFor(shells[w])
		batchers[w] = batchFor(pricers[w])
	}
	defer func() {
		for _, pr := range pricers {
			releasePricerCaches(pr)
		}
	}()

	metricsOn := ctx.metrics != nil
	if metricsOn {
		ctx.metrics.ParallelRuns.Inc()
	}
	var barrierNanos int64

	var tasks []query.RelSet
	var res []subsetResult
	for d := 2; d <= n && !ctx.stopped(); d++ {
		// Task generation (and csg level materialization) happens on the
		// driver goroutine before the fan-out, in the sequential visiting
		// order — so the per-level batches are identical per enumerator at
		// any parallelism.
		tasks = ctx.appendLevel(tasks[:0], d)
		if cap(res) < len(tasks) {
			res = make([]subsetResult, len(tasks))
		} else {
			// Stale results from a previous level would corrupt the merge.
			res = res[:len(tasks)]
			clear(res)
		}
		nw := workers
		if nw > len(tasks) {
			nw = len(tasks)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		var levelStart time.Time
		var busyBefore int64
		if metricsOn {
			levelStart = time.Now()
			busyBefore = p.busyNanos.Load()
		}
		dd := d
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(sh *Context, pr stepPricer, bp batchStepPricer) {
				defer wg.Done()
				var t0 time.Time
				if metricsOn {
					t0 = time.Now()
				}
				defer func() {
					if metricsOn {
						p.busyNanos.Add(time.Since(t0).Nanoseconds())
					}
					if r := recover(); r != nil {
						// A panicking coster interrupts the run; the driver
						// degrades down the anytime ladder like the
						// sequential engine's recover does.
						sh.Count.PanicsRecovered++
						sh.interrupt(panicError{val: r})
					}
				}()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) || sh.stopped() {
						return
					}
					if bushy {
						res[i] = o.solveBushy(sh, pr, bp, best, tasks[i], dd, full)
					} else {
						res[i] = o.solveLeftDeep(sh, pr, bp, best, tasks[i], dd, full)
					}
				}
			}(shells[w], pricers[w], batchers[w])
		}
		wg.Wait()
		if metricsOn {
			wall := time.Since(levelStart).Nanoseconds()
			if idle := wall*int64(nw) - (p.busyNanos.Load() - busyBefore); idle > 0 {
				barrierNanos += idle
			}
		}
		for i := range res {
			applySubset(ctx, best, tasks[i], &res[i], &rootBest, &rootFound)
		}
	}

	// Fold the worker shards into the root session: counters via the
	// commutative Add, timing shards by sum. Arena gauges come from the
	// shared arena at snapshot time; budget meters already flowed through
	// the parRun atomics.
	for _, sh := range shells {
		ctx.Count.Add(sh.Count)
		ctx.costingNanos += sh.costingNanos
		ctx.bucketingNanos += sh.bucketingNanos
	}
	if cause := p.firstCause(); cause != nil && ctx.stopCause == nil {
		ctx.stopCause = cause
		ctx.interrupted = true
	}
	if metricsOn {
		ctx.metrics.WorkerBusySeconds.Add(float64(p.busyNanos.Load()) / 1e9)
		ctx.metrics.BarrierWaitSeconds.Add(float64(barrierNanos) / 1e9)
	}

	if bushy {
		return o.finishBushy(ctx, rootBest, rootFound)
	}
	return o.finishLeftDeep(ctx, o.pricer, best, full, n, rootBest, rootFound)
}
