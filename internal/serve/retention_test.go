package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/lec"
)

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// distinctRequests builds count requests with pairwise distinct keys: 4–8
// relation queries over every join-graph shape, each under its own memory
// distribution.
func distinctRequests(t *testing.T, seed int64, count int) (*catalog.Catalog, []Request) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 8, IndexProb: 0.5})
	shapes := workload.Topologies()
	reqs := make([]Request, count)
	for i := range reqs {
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
			NumRels: 4 + rng.Intn(5), Shape: shapes[i%len(shapes)], OrderBy: i%3 == 0, SelectionProb: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		mem := stats.MustNew([]float64{100 + float64(i), 2000 + float64(i)}, []float64{0.4, 0.6})
		reqs[i] = Request{Query: q, Env: lec.Environment{Memory: mem}, Strategy: lec.AlgorithmC}
	}
	return cat, reqs
}

// retainedPerKeyCeiling is the most heap a Service may keep per plan it
// still holds (a cache entry or a breaker's last-good plan) once the
// request is long gone. A detached 8-relation plan and its bookkeeping come
// to a few KiB; a plan that pinned its search arena would cost tens.
const retainedPerKeyCeiling = 8 << 10

// TestServiceRetentionBounded feeds a Service 20× its cache capacity of
// distinct queries and checks what stays reachable: the breaker registry
// holds to its bound, and the retained heap per held plan stays under
// retainedPerKeyCeiling.
func TestServiceRetentionBounded(t *testing.T) {
	const capacity = 32
	cat, reqs := distinctRequests(t, 11, 20*capacity)
	svc := New(cat, Config{CacheCapacity: capacity, CacheShards: 1})
	limit := max(capacity, minBreakers)
	ctx := context.Background()
	before := liveHeap()
	for i, r := range reqs {
		if _, err := svc.Optimize(ctx, r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if n := svc.breakers.size(); n > limit {
			t.Fatalf("after request %d the breaker registry holds %d, bound %d", i, n, limit)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(reqs)
	held := capacity + limit
	retained := int64(after) - int64(before)
	t.Logf("retained %d bytes over %d held plans (%d per plan)", retained, held, retained/int64(held))
	if retained > int64(held*retainedPerKeyCeiling) {
		t.Fatalf("service retains %d bytes for %d held plans, ceiling %d per plan", retained, held, retainedPerKeyCeiling)
	}
	runtime.KeepAlive(svc)
}

// TestBreakerEvictionSparesFailingBreakers trips the breakers of a few
// configurations, then floods the registry with healthy ones: the open
// breakers must survive eviction, still pinning their last-good plans,
// while the registry stays within its bound plus those open breakers.
func TestBreakerEvictionSparesFailingBreakers(t *testing.T) {
	cat, reqs := distinctRequests(t, 12, 4+3*minBreakers)
	svc := New(cat, Config{CacheCapacity: -1}) // every request reaches its breaker
	failing := map[*stats.Dist]bool{}
	sick := reqs[:4]
	real := svc.runner
	svc.runner = func(ctx context.Context, q *query.SPJ, req Request, rung Rung) (*lec.Decision, error) {
		if failing[req.Env.Memory] {
			return nil, fmt.Errorf("%w: injected", lec.ErrInternal)
		}
		return real(ctx, q, req, rung)
	}
	ctx := context.Background()
	for _, r := range sick {
		if _, err := svc.Optimize(ctx, r); err != nil {
			t.Fatal(err)
		}
		failing[r.Env.Memory] = true
		for i := 1; i < breakerThreshold; i++ {
			if _, err := svc.Optimize(ctx, r); !errors.Is(err, lec.ErrInternal) {
				t.Fatalf("failure %d = %v, want ErrInternal", i, err)
			}
		}
		r2, err := svc.Optimize(ctx, r)
		if err != nil || !r2.Pinned {
			t.Fatalf("tripping request: %v, pinned=%v", err, r2 != nil && r2.Pinned)
		}
	}
	for _, r := range reqs[len(sick):] {
		if _, err := svc.Optimize(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.breakers.size(); n > minBreakers+len(sick) {
		t.Fatalf("breaker registry holds %d, bound %d plus %d open", n, minBreakers, len(sick))
	}
	for i, r := range sick {
		resp, err := svc.Optimize(ctx, r)
		if err != nil || !resp.Pinned {
			t.Fatalf("open breaker %d was evicted: err=%v", i, err)
		}
	}
}

// TestOversizedSessionNotRetained runs one request whose engine session
// outgrows the scratch pool's per-session cap (a 14-relation star under
// exhaustive enumeration) and checks the service keeps none of it.
func TestOversizedSessionNotRetained(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 14})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: 14, Shape: workload.Star})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(cat, Config{})
	req := Request{Query: q, Env: lec.Environment{Memory: stats.MustNew([]float64{300, 3000}, []float64{0.5, 0.5})}}
	var ms runtime.MemStats
	before := liveHeap()
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	if _, err := svc.Optimize(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc - allocBefore
	retained := int64(after) - int64(before)
	t.Logf("session allocated %d bytes; service retains %d", allocated, retained)
	if allocated < 4<<20 {
		t.Fatalf("the request allocated only %d bytes; it does not exercise the cap", allocated)
	}
	if retained > 1<<20 {
		t.Fatalf("service retains %d bytes after one oversized session", retained)
	}
}
