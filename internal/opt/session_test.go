package opt

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/workload"
)

// drainPool empties the scratch pool so a test sees only its own sessions.
func drainPool() {
	scratchPool.mu.Lock()
	scratchPool.free = nil
	scratchPool.mu.Unlock()
}

// pooledScratch reports whether sc sits in the pool.
func pooledScratch(sc *scratch) bool {
	scratchPool.mu.Lock()
	defer scratchPool.mu.Unlock()
	for _, f := range scratchPool.free {
		if f == sc {
			return true
		}
	}
	return false
}

// poolRun runs one Algorithm C session under a pooled context and returns
// the scratch it ran on, the result, and the release function.
func poolRun(t *testing.T, rc context.Context, seed int64, n int, opts Options) (*scratch, *Result, error, func(bool)) {
	t.Helper()
	cat, q := randInstance(t, seed, n, workload.Topology(seed%3), seed%2 == 0)
	eng, err := NewOptimizer(cat, q, opts, Config{Coster: StaticParams{Mem: randMemDist3(seed)}})
	if err != nil {
		t.Fatal(err)
	}
	pc, release := Pooled(rc)
	res, err := eng.OptimizeCtx(pc)
	if eng.sc == nil {
		t.Fatal("session under a pooled context drew no scratch")
	}
	return eng.sc, res, err, release
}

func TestPoolRecyclesCleanSession(t *testing.T) {
	drainPool()
	sc, res, err, release := poolRun(t, context.Background(), 1, 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kept := plan.Detach(res.Plan)
	want := plan.Explain(kept)
	release(true)
	if !pooledScratch(sc) {
		t.Fatal("clean session's scratch was not pooled")
	}
	if sc.arena.Size() != 0 {
		t.Fatalf("pooled arena still holds %d nodes", sc.arena.Size())
	}
	// The next pooled session runs on the same scratch, and the plan
	// detached from the first session is unaffected.
	sc2, _, err, release2 := poolRun(t, context.Background(), 2, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer release2(true)
	if sc2 != sc {
		t.Fatal("second session did not reuse the pooled scratch")
	}
	if got := plan.Explain(kept); got != want {
		t.Fatalf("detached plan changed when its session's scratch was reused:\n%s\nwant:\n%s", got, want)
	}
}

func TestPoolDropsPoisonedSessions(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := map[string]struct {
		rc    context.Context
		opts  Options
		rules []faultinject.Rule
		ok    bool
	}{
		"panic":          {rc: context.Background(), rules: []faultinject.Rule{{Site: faultinject.JoinCost, Kind: faultinject.KindPanic, After: 5}}, ok: true},
		"nan":            {rc: context.Background(), rules: []faultinject.Rule{{Site: faultinject.JoinCost, Kind: faultinject.KindNaN, After: 3}}, ok: true},
		"deadline":       {rc: cancelled, ok: true},
		"budget":         {rc: context.Background(), opts: Options{Budget: Budget{MaxCostEvals: 20}}, ok: true},
		"request-failed": {rc: context.Background(), ok: false},
	}
	for name, c := range cases {
		drainPool()
		base := runtime.NumGoroutine()
		if c.rules != nil {
			faultinject.Enable(faultinject.New(1, c.rules...))
		}
		sc, _, _, release := poolRun(t, c.rc, 3, 8, c.opts)
		faultinject.Disable()
		release(c.ok)
		if pooledScratch(sc) {
			t.Errorf("%s: poisoned session's scratch reached the pool", name)
		}
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(time.Millisecond)
		}
		if n > base {
			t.Errorf("%s: %d goroutines outlive the release, %d before", name, n, base)
		}
	}
}

func TestPoolDropsOversizedScratch(t *testing.T) {
	drainPool()
	sc := getScratch()
	sc.dp = make([]dpEntry, poolMaxBytes/16)
	if putScratch(sc) || pooledScratch(sc) {
		t.Fatalf("a %d-byte scratch was pooled; the cap is %d", sc.bytes(), poolMaxBytes)
	}
	// A real session past the cap: a 14-relation exhaustive DP.
	big, _, err, release := poolRun(t, context.Background(), 4, 14, Options{})
	if err != nil {
		t.Fatal(err)
	}
	release(true)
	if big.bytes() <= poolMaxBytes {
		t.Fatalf("14-relation session retained only %d bytes; pick a larger one", big.bytes())
	}
	if pooledScratch(big) {
		t.Fatalf("oversized session (%d bytes) was pooled", big.bytes())
	}
}

func TestPoolBound(t *testing.T) {
	drainPool()
	defer drainPool()
	for i := 0; i < poolSlots+3; i++ {
		ok := putScratch(&scratch{arena: plan.NewArena()})
		if want := i < poolSlots; ok != want {
			t.Fatalf("put #%d: pooled=%v, want %v", i, ok, want)
		}
	}
	scratchPool.mu.Lock()
	n := len(scratchPool.free)
	scratchPool.mu.Unlock()
	if n != poolSlots {
		t.Fatalf("pool holds %d scratches, bound is %d", n, poolSlots)
	}
}

// TestUnpooledContextDrawsNothing pins that callers who never asked for
// pooling build sessions exactly as before.
func TestUnpooledContextDrawsNothing(t *testing.T) {
	cat, q := randInstance(t, 5, 6, workload.Chain, false)
	eng, err := NewOptimizer(cat, q, Options{}, Config{Coster: StaticParams{Mem: randMemDist3(5)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OptimizeCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if eng.sc != nil {
		t.Fatal("session under a plain context drew pooled scratch")
	}
}
