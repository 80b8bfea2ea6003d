package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

// Metamorphic serving properties: transformations of how a request is
// served (cache hit vs. miss, faults injected vs. clean, traced vs. plain)
// that must not change what is served.

// randServeCase draws a random catalog/query/memory instance for the
// metamorphic loops.
func randServeCase(t *testing.T, seed int64) (*Service, Request) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 3 + int(seed%2)})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
		NumRels: 3 + int(seed%2), Shape: workload.Chain, OrderBy: seed%2 == 0, SelectionProb: 0.4,
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	dm := stats.MustNew([]float64{100, 900, 5000}, []float64{0.3, 0.4, 0.3})
	svc := New(cat, Config{})
	return svc, Request{Query: q, Env: lec.Environment{Memory: dm}, Strategy: lec.AlgorithmC}
}

// TestMetamorphicCacheHitIdenticalToMiss: a cache hit must serve the very
// Decision the populating miss computed — same pointer, hence byte
// identical — differing only in the Cached flag.
func TestMetamorphicCacheHitIdenticalToMiss(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		svc, req := randServeCase(t, seed)
		ctx := context.Background()
		miss, err := svc.Optimize(ctx, req)
		if err != nil {
			t.Fatalf("seed %d miss: %v", seed, err)
		}
		if miss.Cached {
			t.Fatalf("seed %d: first request served from an empty cache", seed)
		}
		hit, err := svc.Optimize(ctx, req)
		if err != nil {
			t.Fatalf("seed %d hit: %v", seed, err)
		}
		if !hit.Cached {
			t.Fatalf("seed %d: identical second request missed the cache", seed)
		}
		if hit.Decision != miss.Decision {
			t.Errorf("seed %d: cache hit returned a different Decision object", seed)
		}
		if hit.Decision.ExpectedCost != miss.Decision.ExpectedCost ||
			hit.Decision.Explain() != miss.Decision.Explain() {
			t.Errorf("seed %d: cache hit not byte-identical to populating miss", seed)
		}
	}
}

// TestMetamorphicFaultedPlansValidate: with the fault injector poisoning
// cost evaluations (NaN and +Inf at the join/sort pricers), every Decision
// the service still returns must carry a structurally valid plan — degraded
// is acceptable, malformed is not. Worker panics must surface as errors,
// never as decisions.
func TestMetamorphicFaultedPlansValidate(t *testing.T) {
	kinds := []faultinject.Kind{faultinject.KindNaN, faultinject.KindInf}
	sites := []faultinject.Site{faultinject.JoinCost, faultinject.SortCost}
	for seed := int64(0); seed < 10; seed++ {
		for _, site := range sites {
			for _, kind := range kinds {
				svc, req := randServeCase(t, seed)
				faultinject.Enable(faultinject.New(seed, faultinject.Rule{
					Site: site, Kind: kind, After: int(seed % 3), Every: 2,
				}))
				resp, err := svc.Optimize(context.Background(), req)
				faultinject.Disable()
				if err != nil {
					// Fail-soft may legitimately refuse; it must not serve garbage.
					continue
				}
				if resp.Decision == nil || resp.Decision.Plan == nil {
					t.Fatalf("seed %d %v/%v: nil decision or plan without error", seed, site, kind)
				}
				if verr := plan.Validate(resp.Decision.Plan); verr != nil {
					t.Errorf("seed %d %v/%v: served plan fails validation: %v", seed, site, kind, verr)
				}
			}
		}
	}

	// Panics at the serving worker must be errors, not decisions.
	svc, req := randServeCase(t, 3)
	faultinject.Enable(faultinject.New(7, faultinject.Rule{
		Site: faultinject.ServeOptimize, Kind: faultinject.KindPanic, Every: 1,
	}))
	defer faultinject.Disable()
	if resp, err := svc.Optimize(context.Background(), req); err == nil {
		t.Errorf("injected worker panic produced a decision: %+v", resp)
	} else if !errors.Is(err, lec.ErrInternal) {
		t.Errorf("injected worker panic error = %v, want ErrInternal", err)
	}
	// Compare and Trace run the engine on the same path: a panic there is
	// an error too, never a crash of the caller.
	if ds, err := svc.Compare(context.Background(), req); err == nil {
		t.Errorf("injected worker panic produced %d compared decisions", len(ds))
	} else if !errors.Is(err, lec.ErrInternal) {
		t.Errorf("injected Compare panic error = %v, want ErrInternal", err)
	}
	if dec, err := svc.Trace(context.Background(), req); err == nil {
		t.Errorf("injected worker panic produced a traced decision: %+v", dec)
	} else if !errors.Is(err, lec.ErrInternal) {
		t.Errorf("injected Trace panic error = %v, want ErrInternal", err)
	}
}

// TestMetamorphicTraceMatchesOptimize: the traced run must decide exactly
// what the plain run decides — tracing observes, never steers — while
// bypassing the plan cache and actually attaching a trace whose final cost
// is the decision's cost.
func TestMetamorphicTraceMatchesOptimize(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		svc, req := randServeCase(t, seed)
		ctx := context.Background()
		plain, err := svc.Optimize(ctx, req)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dec, err := svc.Trace(ctx, req)
		if err != nil {
			t.Fatalf("seed %d trace: %v", seed, err)
		}
		if dec.Trace == nil {
			t.Fatalf("seed %d: Service.Trace returned no trace", seed)
		}
		if dec.ExpectedCost != plain.Decision.ExpectedCost {
			t.Errorf("seed %d: traced cost %v != plain cost %v", seed, dec.ExpectedCost, plain.Decision.ExpectedCost)
		}
		// The facade recomputes the expectation from the plan's risk profile,
		// so engine cost and decision cost can differ in the last ulp.
		if d := dec.Trace.FinalCost - dec.ExpectedCost; d > 1e-9*dec.ExpectedCost || d < -1e-9*dec.ExpectedCost {
			t.Errorf("seed %d: trace final cost %v != decision cost %v", seed, dec.Trace.FinalCost, dec.ExpectedCost)
		}
		if dec == plain.Decision {
			t.Errorf("seed %d: Trace served the cached Decision (must bypass the cache)", seed)
		}
	}
}

// TestServeMetricsEndToEnd: a Service wired to a registry reports its
// traffic — request counts, cache hit/miss split, latency histograms — and
// the registry renders valid Prometheus exposition text for all of it.
func TestServeMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	cat, q, dm := workload.Example11()
	svc := New(cat, Config{Metrics: reg})
	req := Request{Query: q, Env: lec.Environment{Memory: dm}, Strategy: lec.AlgorithmC}
	ctx := context.Background()
	if _, err := svc.Optimize(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Optimize(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Trace(ctx, req); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	check := func(name string, want float64) {
		t.Helper()
		v, ok := snap.Counters[name]
		if !ok {
			t.Fatalf("counter %s not registered", name)
		}
		if v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
	check("lec_serve_requests_total", 3)
	check("lec_serve_cache_hits_total", 1)
	check("lec_serve_cache_misses_total", 1)
	if h, ok := snap.Histograms["lec_serve_optimize_seconds"]; !ok || h.Count != 2 {
		t.Errorf("optimize latency histogram = %+v, want 2 observations", h)
	}
	if v := snap.Counters["lec_opt_runs_total"]; v < 2 {
		t.Errorf("engine runs %v, want ≥ 2 (miss + trace)", v)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE lec_serve_optimize_seconds histogram",
		`lec_serve_optimize_seconds_bucket{le="+Inf"} 2`,
		"lec_serve_optimize_seconds_sum",
		"# TYPE lec_serve_requests_total counter",
		"lec_serve_queue_depth 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q\n%s", want, text)
		}
	}
}
