package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/lec"
)

// serveSeries maps each lec_serve_*_total series to the Stats field it
// reads.
var serveSeries = map[string]string{
	"lec_serve_requests_total":            "Requests",
	"lec_serve_optimizations_total":       "Optimizations",
	"lec_serve_shed_total":                "Shed",
	"lec_serve_pressured_total":           "PressureDegraded",
	"lec_serve_degraded_total":            "Degraded",
	"lec_serve_pinned_total":              "PinnedServes",
	"lec_serve_cache_hits_total":          "CacheHits",
	"lec_serve_cache_misses_total":        "CacheMisses",
	"lec_serve_coalesced_total":           "Coalesced",
	"lec_serve_cache_evictions_total":     "Evictions",
	"lec_serve_cache_invalidations_total": "Invalidations",
	"lec_serve_breaker_trips_total":       "BreakerTrips",
	"lec_serve_breaker_resets_total":      "BreakerResets",
}

// TestServeCountersMatchStats drives a scripted mix through one service —
// a hit, misses, evictions, an invalidation, a coalesced stampede, a shed,
// a pressured and degraded run, a breaker trip with pinned serves, and a
// reset — and checks that every lec_serve_*_total series equals the Stats
// field counting the same event, and that every int64 counter in Stats has
// exactly one series and moved.
func TestServeCountersMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	svc := New(multiTableCatalog(9), Config{
		Workers:       1,
		QueueDepth:    1,
		CacheCapacity: 2,
		CacheShards:   1,
		// A queued request runs under a one-evaluation budget and degrades.
		Ladder:  []Rung{{Depth: 1, Budget: lec.Budget{MaxCostEvals: 1}, Name: "tightened"}},
		Metrics: reg,
	})
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	svc.clock = clk.Now
	var sick atomic.Bool
	real := svc.runner
	svc.runner = func(ctx context.Context, q *query.SPJ, req Request, rung Rung) (*lec.Decision, error) {
		if sick.Load() {
			return nil, fmt.Errorf("%w: scripted", lec.ErrInternal)
		}
		return real(ctx, q, req, rung)
	}
	ctx := context.Background()
	req := func(i int) Request {
		return Request{SQL: pairQuery(i, i+1), Env: env(), Strategy: lec.AlgorithmC}
	}
	optimize := func(r Request) *Response {
		t.Helper()
		resp, err := svc.Optimize(ctx, r)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	hold := func() *faultinject.Injector {
		in := faultinject.New(1, faultinject.Rule{
			Site: faultinject.ServeOptimize, Kind: faultinject.KindHold, After: 1, Every: 1,
		})
		faultinject.Enable(in)
		t.Cleanup(faultinject.Disable)
		t.Cleanup(in.Release)
		return in
	}

	// A miss and a hit; two more misses evict the first entry from the
	// two-entry cache, and a generation bump purges the other two.
	optimize(req(0))
	if !optimize(req(0)).Cached {
		t.Fatal("second identical request missed the cache")
	}
	optimize(req(1))
	optimize(req(2))
	svc.Invalidate()

	// A stampede: three followers coalesce onto a held leader.
	in := hold()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Optimize(ctx, req(3)); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, "three coalesced followers", func() bool { return svc.Stats().Coalesced == 3 })
	in.Release()
	wg.Wait()
	faultinject.Disable()

	// The only worker held and the only queue slot taken: the next request
	// is shed, and the queued one runs degraded at the tightened rung.
	in = hold()
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := svc.Optimize(ctx, req(4)); err != nil {
			t.Error(err)
		}
	}()
	waitFor(t, "the worker held", func() bool { return in.Holding(faultinject.ServeOptimize) == 1 })
	go func() {
		defer wg.Done()
		r, err := svc.Optimize(ctx, req(5))
		if err != nil {
			t.Error(err)
		} else if r.Pressure != "tightened" || !r.Decision.Degraded {
			t.Errorf("queued response pressure %q, degraded %v; want tightened and degraded", r.Pressure, r.Decision.Degraded)
		}
	}()
	waitFor(t, "a queued request", func() bool { return svc.Stats().QueueDepth == 1 })
	if _, err := svc.Optimize(ctx, req(6)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full-queue error = %v, want ErrOverloaded", err)
	}
	in.Release()
	wg.Wait()
	faultinject.Disable()

	// A configuration that starts failing trips its breaker and is pinned
	// to its last-good plan; after the cooldown a healed probe resets it.
	optimize(req(7))
	svc.Invalidate()
	sick.Store(true)
	for i := 1; i < breakerThreshold; i++ {
		if _, err := svc.Optimize(ctx, req(7)); !errors.Is(err, lec.ErrInternal) {
			t.Fatalf("failure %d = %v, want ErrInternal", i, err)
		}
	}
	if !optimize(req(7)).Pinned || !optimize(req(7)).Pinned {
		t.Fatal("open breaker did not pin the last-good plan")
	}
	clk.Advance(breakerCooldown)
	sick.Store(false)
	if optimize(req(7)).Pinned {
		t.Fatal("healed probe served the pinned plan")
	}

	st := svc.Stats()
	sv := reflect.ValueOf(st)
	got := reg.Snapshot().Counters
	series := map[string]int{}
	for name, field := range serveSeries {
		series[field]++
		f := sv.FieldByName(field)
		if !f.IsValid() {
			t.Errorf("%s reads Stats.%s, which does not exist", name, field)
			continue
		}
		if v, ok := got[name]; !ok || v != float64(f.Int()) {
			t.Errorf("%s = %v (registered %v), Stats.%s = %d", name, v, ok, field, f.Int())
		}
	}
	for i := 0; i < sv.NumField(); i++ {
		f := sv.Type().Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		if n := series[f.Name]; n != 1 {
			t.Errorf("Stats.%s has %d lec_serve_* series, want 1", f.Name, n)
		}
		if sv.Field(i).Int() == 0 {
			t.Errorf("the scenario never moved Stats.%s", f.Name)
		}
	}
	for name := range got {
		if _, ok := serveSeries[name]; !ok && strings.HasPrefix(name, "lec_serve_") && strings.HasSuffix(name, "_total") {
			t.Errorf("%s has no Stats field", name)
		}
	}
}
