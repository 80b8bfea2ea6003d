package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/lec"
)

// replay sums one replayed request's layer timings: plan is the engine run
// under the service's options, greedy the same query forced to the greedy
// tier, miss and hit a service miss and the warm hit that follows it.
type replay struct {
	bind, canon, plan, greedy, miss, hit time.Duration
	allocBytes, allocObjects             uint64
}

// perLayer measures every per-layer metric for the workload in one trial
// of dur/trials whose windows alternate between traced and untraced, then
// replays requests through each layer.
func perLayer(ctx context.Context, sp *spec, seed int64, dur time.Duration) (map[string]metric, phaseResult, error) {
	settle()
	h, _, err := setUp(ctx, sp, trialSeed(seed, 0))
	if err != nil {
		return nil, phaseResult{}, err
	}
	defer h.close()
	svcs := h.sys.services()
	before := serviceStats(svcs)
	peer0 := h.sys.peerHits()
	rec := newRecorder()
	pr, err := h.phase(ctx, dur/trials, 0, rec)
	if err != nil {
		return nil, pr, err
	}
	after := serviceStats(svcs)

	var tput [2][]float64 // by traced
	var alloc uint64
	var untracedReads int
	var wire, lookups int64
	for _, w := range pr.windows {
		i := 0
		if w.traced {
			i = 1
		} else {
			// Traced lookups carry a span header, and span recording
			// allocates: bytes come from untraced windows only.
			alloc += w.alloc
			untracedReads += w.reads
			wire += w.wire
			lookups += w.lookups
		}
		tput[i] = append(tput[i], float64(w.reads)/w.elapsed.Seconds())
	}
	if len(tput[1]) == 0 {
		return nil, pr, fmt.Errorf("only %d measurement windows; raise --seconds", len(pr.windows))
	}

	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	reads := float64(pr.reads)
	put("trace.overhead_ratio", "ratio", median(tput[1])/median(tput[0]))
	put("serve.alloc_bytes_per_req", "B/req", float64(alloc)/float64(untracedReads))
	lookupsServed := after.CacheHits + after.CacheMisses - before.CacheHits - before.CacheMisses
	put("serve.hit_ratio", "ratio", ratio(float64(after.CacheHits-before.CacheHits), float64(lookupsServed)))
	put("serve.evictions_per_req", "1/req", float64(after.Evictions-before.Evictions)/reads)

	// The set-up's warm pass is not tallied, so the tally is the phase's.
	put("opt.tier_greedy_ratio", "ratio", float64(h.tally.greedy)/reads)
	put("opt.tier_gap_mean", "ratio", ratio(h.tally.greedyGap, float64(h.tally.greedy)))
	for _, reason := range []string{"gap", "variance", "level-set"} {
		put("opt.tier_escalations."+reason, "1/req", float64(h.tally.escalations[reason])/reads)
	}

	// Fleet layers.
	var lookupUS, handleUS, updateMS, propagateUS float64
	var hedges, stale int64
	if c, ok := h.sys.(*cluster); ok {
		lookupUS = c.lookups.meanUS()
		handleUS = c.handles.meanUS()
		updateMS = ratio(pr.writeTime.Seconds()*1e3, float64(pr.writes))
		propagateUS = c.propagate.meanUS()
		hedges, stale = c.status()
	}
	put("fleet.lookup_us", "us", lookupUS)
	put("fleet.handle_us", "us", handleUS)
	put("fleet.wire_bytes_per_lookup", "B", ratio(float64(wire), float64(lookups)))
	put("fleet.peer_hit_ratio", "ratio", float64(h.sys.peerHits()-peer0)/reads)
	put("fleet.drifted_plans_per_req", "1/req", float64(pr.drifted)/reads)
	runs := 0.0
	if sp.fleet {
		runs = float64(after.Optimizations) / float64(len(h.keysRead))
	}
	put("fleet.engine_runs_per_key", "ratio", runs)
	put("fleet.update_ms", "ms", updateMS)
	put("fleet.propagate_us", "us", propagateUS)
	put("fleet.hedges", "count", float64(hedges))
	put("fleet.stale_rejected", "count", float64(stale))

	if err := replayLayers(ctx, h, rec, dur/4, m); err != nil {
		return nil, pr, err
	}
	if err := rec.write(fmt.Sprintf("%s/spans-%s-seed%d.jsonl", outDir, sp.name, seed)); err != nil {
		return nil, pr, err
	}
	return m, pr, nil
}

// replayLayers replays the first timed reads of the workload's stream
// through each layer's public function on its own, for at most budget
// wall time, recording a span per call.
func replayLayers(ctx context.Context, h *harness, rec *recorder, budget time.Duration, m map[string]metric) error {
	sp, seed := h.sp, h.seed
	st, err := newStream(sp, seed)
	if err != nil {
		return err
	}
	if _, err := st.warmOps(); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	phased := sp.opts
	phased.Metrics = obs.NewOptMetrics(reg)
	greedyOpts := sp.opts
	greedyOpts.Tier = lec.TierGreedy
	// One replay service per catalog state: Invalidate before each request
	// forces the miss, the repeat is the warm local hit.
	rsvc := [2]*serve.Service{
		serve.New(buildCatalog(sp, seed, 0), serviceConfig(sp)),
		serve.New(buildCatalog(sp, seed, 1), serviceConfig(sp)),
	}
	canon := h.sys.services()[0]

	var sum replay
	var n, esc int
	var escPlan time.Duration
	var costEvals, subsets, joinSteps, prunes, memoHits, arenaHits int
	timed := func(ctx context.Context, name string, f func(ctx context.Context)) time.Duration {
		ctx, end := rec.start(ctx, name)
		t0 := time.Now()
		f(ctx)
		d := time.Since(t0)
		end()
		return d
	}
	start := time.Now()
	for n < 4000 && time.Since(start) < budget {
		o, err := st.next()
		if err != nil {
			return err
		}
		if o.write {
			continue
		}
		cat := h.refs.cats[o.state]
		rctx, end := rec.request(ctx, "replay")
		var bindErr error
		sum.bind += timed(rctx, "sqlparse.ParseAndBind", func(context.Context) {
			_, bindErr = sqlparse.ParseAndBind(o.req.SQL, cat)
		})
		var bound serve.Request
		sum.canon += timed(rctx, "serve.Service.Canonicalize", func(context.Context) {
			bound, _, bindErr = canon.Canonicalize(o.req)
		})
		if bindErr != nil {
			end()
			return bindErr
		}
		var dec *lec.Decision
		a0, n0 := allocs()
		d := timed(rctx, "lec.Optimizer.OptimizeContext", func(ctx context.Context) {
			dec, err = lec.NewWithOptions(cat, sp.opts).OptimizeContext(ctx, bound.Query, o.req.Env, o.req.Strategy)
		})
		a1, n1 := allocs()
		if err != nil {
			end()
			return err
		}
		sum.plan += d
		sum.allocBytes += a1 - a0
		sum.allocObjects += n1 - n0
		if dec.Tier != "greedy" {
			esc++
			escPlan += d
		}
		costEvals += dec.Stats.CostEvals
		subsets += dec.Stats.Subsets
		joinSteps += dec.Stats.JoinSteps
		prunes += dec.Stats.Prunes
		memoHits += dec.Stats.MemoHits
		arenaHits += dec.Stats.ArenaHits
		// The phase timers: a second run with the registry attached.
		if _, err := lec.NewWithOptions(cat, phased).OptimizeContext(ctx, bound.Query, o.req.Env, o.req.Strategy); err != nil {
			end()
			return err
		}
		sum.greedy += timed(rctx, "lec.Optimizer.OptimizeContext greedy", func(ctx context.Context) {
			_, err = lec.NewWithOptions(cat, greedyOpts).OptimizeContext(ctx, bound.Query, o.req.Env, o.req.Strategy)
		})
		if err != nil {
			end()
			return err
		}
		svc := rsvc[o.state]
		svc.Invalidate()
		sum.miss += timed(rctx, "serve.Service.Optimize miss", func(ctx context.Context) {
			_, err = svc.Optimize(ctx, o.req)
		})
		if err != nil {
			end()
			return err
		}
		sum.hit += timed(rctx, "serve.Service.Optimize hit", func(ctx context.Context) {
			_, err = svc.Optimize(ctx, o.req)
		})
		end()
		if err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return fmt.Errorf("replay ran no request")
	}
	per := func(d time.Duration) float64 { return float64(d) / float64(n) / 1e3 }
	perPlan := func(v int) float64 { return float64(v) / float64(n) }
	m["sqlparse.bind_us"] = metric{per(sum.bind), "us"}
	m["serve.canonicalize_us"] = metric{per(sum.canon), "us"}
	m["serve.hit_us"] = metric{per(sum.hit), "us"}
	m["serve.miss_overhead_us"] = metric{per(sum.miss) - per(sum.plan), "us"}
	m["opt.plan_us"] = metric{per(sum.plan), "us"}
	m["opt.tier_greedy_us"] = metric{per(sum.greedy), "us"}
	m["opt.tier_escalated_us"] = metric{ratio(float64(escPlan)/1e3, float64(esc)), "us"}
	m["opt.cost_evals_per_plan"] = metric{perPlan(costEvals), "count"}
	m["opt.subsets_per_plan"] = metric{perPlan(subsets), "count"}
	m["opt.join_steps_per_plan"] = metric{perPlan(joinSteps), "count"}
	m["opt.prunes_per_plan"] = metric{perPlan(prunes), "count"}
	m["opt.memo_hits_per_plan"] = metric{perPlan(memoHits), "count"}
	m["opt.arena_hits_per_plan"] = metric{perPlan(arenaHits), "count"}
	m["opt.alloc_bytes_per_plan"] = metric{float64(sum.allocBytes) / float64(n), "B"}
	m["opt.allocs_per_plan"] = metric{float64(sum.allocObjects) / float64(n), "count"}
	om := phased.Metrics
	m["opt.enumeration_s"] = metric{histMean(om.EnumerationSeconds), "s"}
	m["opt.costing_s"] = metric{histMean(om.CostingSeconds), "s"}
	m["opt.bucketing_s"] = metric{histMean(om.BucketingSeconds), "s"}
	return nil
}

func histMean(h *obs.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count())
}

func rate(p phaseResult) float64 { return float64(p.reads) / p.elapsed.Seconds() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
