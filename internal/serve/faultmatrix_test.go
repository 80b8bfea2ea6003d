package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/workload"
	"repro/lec"
)

// fakeClock lets breaker tests move through cooldowns without sleeping.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestBreakerFaultMatrix drives the full breaker state machine — trip,
// pinned serving, failed half-open probe, successful probe, reset — with
// panics injected at the serving worker.
func TestBreakerFaultMatrix(t *testing.T) {
	cat, q, dm := workload.Example11()
	svc := New(cat, Config{CacheCapacity: -1}) // cache off so every request reaches the breaker
	clk := &fakeClock{now: time.Unix(1_000_000, 0)}
	svc.clock = clk.Now
	req := Request{Query: q, Env: lec.Environment{Memory: dm}, Strategy: lec.AlgorithmC}
	ctx := context.Background()

	// Run 1 succeeds and becomes the pinned last-good plan.
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.ServeOptimize, Kind: faultinject.KindPanic, After: 2, Every: 1,
	})
	faultinject.Enable(in)
	t.Cleanup(faultinject.Disable)

	good, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Runs 2 and 3 panic: internal errors surface while the breaker counts.
	for i := 0; i < 2; i++ {
		if _, err := svc.Optimize(ctx, req); !errors.Is(err, lec.ErrInternal) {
			t.Fatalf("failure %d error = %v, want ErrInternal", i+1, err)
		}
	}
	// Run 4 is the third consecutive failure: it trips the breaker, and the
	// request itself is served the pinned last-good plan.
	r4, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatalf("tripping request error = %v, want pinned response", err)
	}
	if !r4.Pinned || r4.Decision.ExpectedCost != good.Decision.ExpectedCost {
		t.Errorf("tripping response = %+v, want pinned last-good", r4)
	}
	if trips, _ := svc.breakers.counts(); trips != 1 {
		t.Errorf("trips = %d, want 1", trips)
	}

	// While open, requests are pinned without touching the engine.
	hitsBefore := in.Hits(faultinject.ServeOptimize)
	r5, err := svc.Optimize(ctx, req)
	if err != nil || !r5.Pinned {
		t.Fatalf("open-state response = %+v, %v; want pinned", r5, err)
	}
	if in.Hits(faultinject.ServeOptimize) != hitsBefore {
		t.Error("open breaker still ran the engine")
	}

	// Past the cooldown one half-open probe runs; the coster still panics,
	// so the probe fails and the breaker re-opens.
	clk.Advance(breakerCooldown + 50*time.Millisecond)
	r6, err := svc.Optimize(ctx, req)
	if err != nil || !r6.Pinned {
		t.Fatalf("failed-probe response = %+v, %v; want pinned fallback", r6, err)
	}
	if in.Hits(faultinject.ServeOptimize) != hitsBefore+1 {
		t.Error("half-open breaker did not admit exactly one probe")
	}
	if trips, _ := svc.breakers.counts(); trips != 2 {
		t.Errorf("trips after failed probe = %d, want 2", trips)
	}

	// Immediately after the failed probe the breaker is open again.
	r7, err := svc.Optimize(ctx, req)
	if err != nil || !r7.Pinned {
		t.Fatalf("post-failed-probe response = %+v, %v; want pinned", r7, err)
	}

	// The coster heals; the next probe succeeds and closes the breaker.
	faultinject.Disable()
	clk.Advance(breakerCooldown + 50*time.Millisecond)
	r8, err := svc.Optimize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Pinned {
		t.Error("successful probe still served the pinned plan")
	}
	if r8.Decision.ExpectedCost != good.Decision.ExpectedCost {
		t.Errorf("healed cost %v != original %v", r8.Decision.ExpectedCost, good.Decision.ExpectedCost)
	}
	if _, resets := svc.breakers.counts(); resets != 1 {
		t.Errorf("resets = %d, want 1", resets)
	}
	st := svc.Stats()
	if st.PinnedServes != 4 {
		t.Errorf("pinned serves = %d, want 4", st.PinnedServes)
	}
}

// TestBreakerWithoutLastGoodFailsTyped: a configuration whose very first
// runs all panic has nothing to pin, so an open breaker surfaces
// ErrCircuitOpen instead of inventing a plan.
func TestBreakerWithoutLastGoodFailsTyped(t *testing.T) {
	cat, q, dm := workload.Example11()
	svc := New(cat, Config{CacheCapacity: -1})
	svc.clock = (&fakeClock{now: time.Unix(1_000_000, 0)}).Now // the cooldown never passes
	req := Request{Query: q, Env: lec.Environment{Memory: dm}, Strategy: lec.AlgorithmC}

	faultinject.Enable(faultinject.New(1, faultinject.Rule{
		Site: faultinject.ServeOptimize, Kind: faultinject.KindPanic, After: 1, Every: 1,
	}))
	t.Cleanup(faultinject.Disable)

	ctx := context.Background()
	for i := 1; i <= breakerThreshold; i++ {
		if _, err := svc.Optimize(ctx, req); !errors.Is(err, lec.ErrInternal) {
			t.Fatalf("failure %d = %v, want ErrInternal", i, err)
		}
	}
	_, err := svc.Optimize(ctx, req)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-state error = %v, want ErrCircuitOpen", err)
	}
	// The message names the configuration readably, not as key bytes.
	if !strings.Contains(err.Error(), q.String()) || !strings.Contains(err.Error(), lec.AlgorithmC.String()) {
		t.Errorf("open-state error %q does not name the strategy and canonical SQL %q", err, q.String())
	}
}

// TestBudgetExhaustedRunsOnce: an engine run that ends in
// ErrBudgetExhausted is not run again. The real engine returns it only
// when its deadline or cancellation fired, or when the greedy fallback
// failed after a budget stop; a second run under the same request, rung
// and budget ends the same way.
func TestBudgetExhaustedRunsOnce(t *testing.T) {
	cat, q, dm := workload.Example11()
	svc := New(cat, Config{})
	var calls atomic.Int64
	svc.runner = func(ctx context.Context, q *query.SPJ, req Request, rung Rung) (*lec.Decision, error) {
		calls.Add(1)
		return nil, fmt.Errorf("%w: scripted", lec.ErrBudgetExhausted)
	}
	_, err := svc.Optimize(context.Background(), Request{Query: q, Env: lec.Environment{Memory: dm}, Strategy: lec.AlgorithmC})
	if !errors.Is(err, lec.ErrBudgetExhausted) {
		t.Fatalf("error = %v, want ErrBudgetExhausted", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("engine runs = %d, want 1", got)
	}
}

// TestLatencyInjectionAtAdmission proves the serve/admit stall hook works:
// an injected stall delays the request end to end.
func TestLatencyInjectionAtAdmission(t *testing.T) {
	svc, req := newExample11Service(t, Config{})
	const stall = 30 * time.Millisecond
	faultinject.Enable(faultinject.New(1, faultinject.Rule{
		Site: faultinject.ServeAdmit, Kind: faultinject.KindStall, After: 1, Sleep: stall,
	}))
	t.Cleanup(faultinject.Disable)
	start := time.Now()
	if _, err := svc.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < stall {
		t.Errorf("request took %v, want ≥ %v (stall not injected)", took, stall)
	}
}

// TestInvalidationRacesCatalogUpdate hammers the cache from four readers
// while the catalog is repeatedly updated. Under -race this proves the
// catalog lock discipline; the final assertions prove freshness — after
// the last update, served costs match a from-scratch optimizer run against
// the final statistics.
func TestInvalidationRacesCatalogUpdate(t *testing.T) {
	cat := multiTableCatalog(4)
	svc := New(cat, Config{})
	e := env()
	reqs := []Request{
		{SQL: pairQuery(0, 1), Env: e, Strategy: lec.AlgorithmC},
		{SQL: pairQuery(1, 2), Env: e, Strategy: lec.AlgorithmC},
		{SQL: pairQuery(2, 3), Env: e, Strategy: lec.AlgorithmC},
		{SQL: pairQuery(0, 3), Env: e, Strategy: lec.AlgorithmC},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(req Request) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := svc.Optimize(context.Background(), req); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
			}
		}(reqs[i])
	}

	const updates = 8
	for u := 0; u < updates; u++ {
		if err := svc.UpdateCatalog(func(c *catalog.Catalog) error {
			tbl, err := c.Table("t0")
			if err != nil {
				return err
			}
			tbl.Pages *= 1.1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if got := svc.Generation(); got != updates {
		t.Fatalf("generation = %d, want %d", got, updates)
	}
	// Freshness: what the service serves now equals a cold optimizer run
	// against the final catalog.
	r, err := svc.Optimize(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := lec.New(cat).OptimizeSQLWithContext(context.Background(), reqs[0].SQL, e, lec.AlgorithmC)
	if err != nil {
		t.Fatal(err)
	}
	if r.Decision.ExpectedCost != want.ExpectedCost {
		t.Errorf("served cost %v != fresh cost %v after %d updates", r.Decision.ExpectedCost, want.ExpectedCost, updates)
	}
}
