package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

// newExample11Service is the standard single-query fixture.
func newExample11Service(t *testing.T, cfg Config) (*Service, Request) {
	t.Helper()
	cat, q, dm := workload.Example11()
	svc := New(cat, cfg)
	return svc, Request{Query: q, Env: lec.Environment{Memory: dm}, Strategy: lec.AlgorithmC}
}

// multiTableCatalog builds n joinable tables t0..t{n-1} for tests that
// need many distinct queries.
func multiTableCatalog(n int) *catalog.Catalog {
	cat := catalog.New()
	for i := 0; i < n; i++ {
		rows := int64(100_000 * (i + 1))
		cat.MustAdd(&catalog.Table{
			Name: fmt.Sprintf("t%d", i), Rows: rows, Pages: float64(rows) / 10,
			Columns: []*catalog.Column{{Name: "k", Distinct: rows, Min: 1, Max: float64(rows)}},
		})
	}
	return cat
}

func pairQuery(i, j int) string {
	return fmt.Sprintf("SELECT * FROM t%d, t%d WHERE t%d.k = t%d.k", i, j, i, j)
}

func env() lec.Environment {
	return lec.Environment{Memory: stats.MustNew([]float64{700, 2000}, []float64{0.2, 0.8})}
}

func TestOptimizeServesAndCaches(t *testing.T) {
	svc, req := newExample11Service(t, Config{})
	ctx := context.Background()

	r1, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached || r1.Coalesced || r1.Pinned {
		t.Errorf("first response flags = %+v, want fresh", r1)
	}
	if r1.Decision == nil || r1.Decision.Plan == nil {
		t.Fatal("no decision")
	}
	r2, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Errorf("second identical request not cached")
	}
	if r2.Decision.ExpectedCost != r1.Decision.ExpectedCost {
		t.Errorf("cached cost %v != fresh cost %v", r2.Decision.ExpectedCost, r1.Decision.ExpectedCost)
	}
	st := svc.Stats()
	if st.Optimizations != 1 {
		t.Errorf("optimizations = %d, want 1", st.Optimizations)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if st.Search.CostEvals == 0 {
		t.Errorf("engine counters not accumulated: %+v", st.Search)
	}
}

func TestOptimizeSQLBindsAgainstCatalog(t *testing.T) {
	cat, _, dm := workload.Example11()
	svc := New(cat, Config{})
	e := lec.Environment{Memory: dm}
	r, err := svc.Optimize(context.Background(), Request{
		SQL: "SELECT * FROM A, B WHERE A.k = B.k ORDER BY A.k", Env: e, Strategy: lec.AlgorithmC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision.ExpectedCost <= 0 {
		t.Errorf("expected cost = %v", r.Decision.ExpectedCost)
	}

	if _, err := svc.Optimize(context.Background(), Request{SQL: "SELECT FROM WHERE", Env: e}); !errors.Is(err, lec.ErrInvalidQuery) {
		t.Errorf("bad SQL error = %v, want ErrInvalidQuery", err)
	}
	if _, err := svc.Optimize(context.Background(), Request{SQL: "SELECT * FROM nope", Env: e}); !errors.Is(err, lec.ErrUnknownRelation) {
		t.Errorf("unknown table error = %v, want ErrUnknownRelation", err)
	}
	if _, err := svc.Optimize(context.Background(), Request{Env: e}); !errors.Is(err, lec.ErrInvalidQuery) {
		t.Errorf("empty request error = %v, want ErrInvalidQuery", err)
	}
}

// TestStampedeCoalesces is the acceptance scenario: 64 goroutines issue the
// identical request while the single worker is held mid-optimization; the
// service must run the dynamic program exactly once, coalesce the other 63,
// and hand every caller the identical decision.
func TestStampedeCoalesces(t *testing.T) {
	const stampede = 64
	svc, req := newExample11Service(t, Config{Workers: 2, QueueDepth: 8})

	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.ServeOptimize, Kind: faultinject.KindHold, After: 1, Every: 1,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)
	t.Cleanup(in.Release)

	var wg sync.WaitGroup
	wg.Add(stampede)
	resps := make([]*Response, stampede)
	errs := make([]error, stampede)
	for i := 0; i < stampede; i++ {
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = svc.Optimize(context.Background(), req)
		}(i)
	}
	// Wait until the leader is parked and all followers joined its flight.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Coalesced != stampede-1 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d (holding %d)",
				svc.Stats().Coalesced, stampede-1, in.Holding(faultinject.ServeOptimize))
		}
		time.Sleep(time.Millisecond)
	}
	in.Release()
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	leaderCount, coalescedCount := 0, 0
	want := resps[0].Decision
	for i, r := range resps {
		if r.Coalesced {
			coalescedCount++
		} else {
			leaderCount++
		}
		if r.Decision.ExpectedCost != want.ExpectedCost || r.Decision.Plan.Key() != want.Plan.Key() {
			t.Errorf("request %d decision differs: cost %v vs %v", i, r.Decision.ExpectedCost, want.ExpectedCost)
		}
	}
	st := svc.Stats()
	if st.Optimizations != 1 {
		t.Errorf("engine runs = %d, want exactly 1", st.Optimizations)
	}
	if st.Coalesced != stampede-1 {
		t.Errorf("coalesce counter = %d, want %d", st.Coalesced, stampede-1)
	}
	if leaderCount != 1 || coalescedCount != stampede-1 {
		t.Errorf("leaders/coalesced = %d/%d, want 1/%d", leaderCount, coalescedCount, stampede-1)
	}
}

func TestCacheLRUEvicts(t *testing.T) {
	cat := multiTableCatalog(6)
	// One shard of capacity 2 makes eviction order observable.
	svc := New(cat, Config{CacheShards: 1, CacheCapacity: 2})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := svc.Optimize(ctx, Request{SQL: pairQuery(i, (i+1)%6), Env: env(), Strategy: lec.AlgorithmC}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// The oldest entry is gone: re-requesting it misses.
	if _, err := svc.Optimize(ctx, Request{SQL: pairQuery(0, 1), Env: env(), Strategy: lec.AlgorithmC}); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().CacheMisses; got != 4 {
		t.Errorf("misses = %d, want 4 (evicted entry re-optimized)", got)
	}
}

func TestUpdateCatalogInvalidatesCache(t *testing.T) {
	svc, req := newExample11Service(t, Config{})
	ctx := context.Background()

	r1, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.UpdateCatalog(func(c *catalog.Catalog) error {
		// A statistics refresh discovers table A is 4x bigger.
		a, err := c.Table("A")
		if err != nil {
			return err
		}
		a.Pages *= 4
		a.Rows *= 4
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if svc.Generation() != 1 {
		t.Errorf("generation = %d, want 1", svc.Generation())
	}
	r2, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Error("post-update request served from the stale cache")
	}
	if r2.Decision.ExpectedCost <= r1.Decision.ExpectedCost {
		t.Errorf("4x table did not raise cost: %v -> %v", r1.Decision.ExpectedCost, r2.Decision.ExpectedCost)
	}
	st := svc.Stats()
	if st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1 (the gen-0 entry purged)", st.Invalidations)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	svc, req := newExample11Service(t, Config{})
	svc.BeginDrain()
	if !svc.Draining() {
		t.Fatal("not draining after BeginDrain")
	}
	if _, err := svc.Optimize(context.Background(), req); !errors.Is(err, ErrDraining) {
		t.Errorf("optimize while draining = %v, want ErrDraining", err)
	}
	if _, err := svc.Compare(context.Background(), req); !errors.Is(err, ErrDraining) {
		t.Errorf("compare while draining = %v, want ErrDraining", err)
	}
}

func TestCompareRunsAllStrategies(t *testing.T) {
	svc, req := newExample11Service(t, Config{})
	ds, err := svc.Compare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != len(lec.Strategies()) {
		t.Fatalf("decisions = %d, want %d", len(ds), len(lec.Strategies()))
	}
	for _, d := range ds {
		if d.Plan == nil {
			t.Errorf("strategy %v: nil plan", d.Strategy)
		}
	}
}

func TestDegradedPlansAreNotCached(t *testing.T) {
	// A budget of 1 cost eval degrades every run; such plans must not
	// stick in the cache and outlive the pressure that produced them.
	svc, req := newExample11Service(t, Config{
		Options: lec.Options{Budget: lec.Budget{MaxCostEvals: 1}},
	})
	ctx := context.Background()
	r1, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Decision.Degraded {
		t.Fatal("budget of 1 did not degrade")
	}
	r2, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Error("degraded plan was cached")
	}
	if got := svc.Stats().Optimizations; got != 2 {
		t.Errorf("optimizations = %d, want 2 (no caching of degraded runs)", got)
	}
}

func TestDefaultTimeoutApplies(t *testing.T) {
	// A microscopic default timeout forces degradation even though the
	// caller passed a background context.
	svc, req := newExample11Service(t, Config{DefaultTimeout: time.Nanosecond})
	r, err := svc.Optimize(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Decision.Degraded {
		t.Error("nanosecond default timeout did not degrade the run")
	}
}

func TestTightenBudget(t *testing.T) {
	cases := []struct {
		base, rung, want lec.Budget
	}{
		{lec.Budget{}, lec.Budget{}, lec.Budget{}},
		{lec.Budget{}, lec.Budget{MaxCostEvals: 10}, lec.Budget{MaxCostEvals: 10}},
		{lec.Budget{MaxCostEvals: 5}, lec.Budget{MaxCostEvals: 10}, lec.Budget{MaxCostEvals: 5}},
		{lec.Budget{MaxCostEvals: 50}, lec.Budget{MaxCostEvals: 10}, lec.Budget{MaxCostEvals: 10}},
		{lec.Budget{MaxSubsets: 7}, lec.Budget{MaxCostEvals: 10}, lec.Budget{MaxCostEvals: 10, MaxSubsets: 7}},
	}
	for i, c := range cases {
		if got := tightenBudget(c.base, c.rung); got != c.want {
			t.Errorf("case %d: tighten(%+v, %+v) = %+v, want %+v", i, c.base, c.rung, got, c.want)
		}
	}
}
