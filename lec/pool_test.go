package lec

// Differential test of session pooling: OptimizeContext runs every engine
// session on recycled scratch and detaches the served plan, and must return
// exactly what a fresh, unpooled run returns — plan text, expected-cost
// bits and engine counters — whatever ran on the scratch before, including
// requests that panicked or hit their deadline.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/workload"
)

// poolCase is one seeded request of the differential mix.
type poolCase struct {
	q   *query.SPJ
	env Environment
	s   Strategy
}

// poolMix generates count requests: 3–9 relations over every join-graph
// shape, ORDER BY on 30% and GROUP BY on 10% of them, memory distributions
// of 2–6 buckets, strategies drawn from strats.
func poolMix(t *testing.T, seed int64, count int, strats []Strategy) (*Optimizer, []poolCase) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 9, IndexProb: 0.5})
	shapes := workload.Topologies()
	out := make([]poolCase, count)
	for i := range out {
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
			NumRels:       3 + rng.Intn(7),
			Shape:         shapes[i%len(shapes)],
			OrderBy:       rng.Float64() < 0.3,
			SelectionProb: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rng.Float64() < 0.1 {
			q.OrderBy = nil
			q.GroupBy = &query.ColumnRef{Table: workload.TableName(0), Column: "fk"}
		}
		mem, err := workload.LognormalMemDist(100+rng.Float64()*3000, 0.3+rng.Float64()*0.9, 2+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = poolCase{q: q, env: Environment{Memory: mem}, s: strats[rng.Intn(len(strats))]}
	}
	return New(cat), out
}

// decisionDigest renders everything the differential test compares.
func decisionDigest(d *Decision) string {
	return fmt.Sprintf("%s\n%s\ncost=%x risk=%x/%x/%x\nstats=%+v\ndeg=%v/%v/%s tier=%s/%s/%x enum=%v",
		d.Plan.Key(), plan.Explain(d.Plan),
		math.Float64bits(d.ExpectedCost), math.Float64bits(d.Risk.Mean),
		math.Float64bits(d.Risk.StdDev), math.Float64bits(d.Risk.P95),
		d.Stats, d.Degraded, d.DegradeReason, d.DegradeRung,
		d.Tier, d.TierReason, math.Float64bits(d.TierGap), d.Enumeration)
}

// waitGoroutines waits for the goroutine count to fall back to base, and
// reports the count it settled at.
func waitGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestPooledSessionsMatchFresh(t *testing.T) {
	all := []Strategy{LSCMean, LSCMode, AlgorithmA, AlgorithmB, AlgorithmC, AlgorithmD}
	configs := []struct {
		name   string
		opts   Options
		strats []Strategy
	}{
		{"default", Options{}, all},
		{"tier-auto-connected", Options{Tier: TierAuto, Enumeration: EnumConnected}, []Strategy{AlgorithmC, LSCMean, AlgorithmD}},
	}
	count := 48
	if testing.Short() {
		count = 16
	}
	for ci, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			o, cases := poolMix(t, int64(100+ci), count, cfg.strats)
			o.opts = cfg.opts
			base := runtime.NumGoroutine()
			type kept struct {
				d      *Decision
				digest string
			}
			var served []kept
			for i, c := range cases {
				label := fmt.Sprintf("%s #%d %v n=%d", cfg.name, i, c.s, c.q.NumRels())
				// Every third request is poisoned before the clean pair
				// runs: a coster panic or an expired deadline, on the
				// pooled path, so its session must not reach the pool.
				switch i % 3 {
				case 1:
					faultinject.Enable(faultinject.New(int64(i), faultinject.Rule{
						Site: faultinject.JoinCost, Kind: faultinject.KindPanic, After: 3 + i%11}))
					d, err := o.OptimizeContext(context.Background(), c.q, c.env, c.s)
					faultinject.Disable()
					if err == nil {
						checkDecision(t, d, c.q, label+" (panic)")
					}
				case 2:
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					if d, err := o.OptimizeContext(ctx, c.q, c.env, c.s); err == nil {
						checkDecision(t, d, c.q, label+" (deadline)")
					}
				}
				if n := waitGoroutines(base); n > base {
					t.Fatalf("%s: %d goroutines outlive the request, %d before", label, n, base)
				}

				pooled, err := o.OptimizeContext(context.Background(), c.q, c.env, c.s)
				if err != nil {
					t.Fatalf("%s: pooled: %v", label, err)
				}
				fresh, err := o.run(context.Background(), c.q, c.env, c.s, nil)
				if err != nil {
					t.Fatalf("%s: fresh: %v", label, err)
				}
				got, want := decisionDigest(pooled), decisionDigest(fresh)
				if got != want {
					t.Fatalf("%s: pooled run differs from a fresh one\npooled:\n%s\nfresh:\n%s", label, got, want)
				}
				if pooled.Degraded {
					t.Fatalf("%s: clean request degraded: %v", label, pooled.DegradeReason)
				}
				served = append(served, kept{pooled, got})
			}
			// Later sessions reuse the slabs the earlier ones searched in; a
			// served plan that still pointed into them would have changed.
			for i, k := range served {
				if got := decisionDigest(k.d); got != k.digest {
					t.Fatalf("%s: served plan #%d changed after later requests\nnow:\n%s\nserved:\n%s", cfg.name, i, got, k.digest)
				}
			}
		})
	}
}

// TestDetachedPlanIsCompact checks that a served plan owns exactly its own
// nodes: n scans and n−1 joins for a plain block, and nothing else.
func TestDetachedPlanIsCompact(t *testing.T) {
	o, cases := poolMix(t, 7, 8, []Strategy{AlgorithmC})
	for i, c := range cases {
		d, err := o.OptimizeContext(context.Background(), c.q, c.env, c.s)
		if err != nil {
			t.Fatal(err)
		}
		var scans, joins, other int
		plan.Walk(d.Plan, func(m plan.Node) {
			switch m.(type) {
			case *plan.Scan:
				scans++
			case *plan.Join:
				joins++
			default:
				other++
			}
		})
		n := c.q.NumRels()
		if scans != n || joins != n-1 || other > 2 {
			t.Errorf("#%d: detached plan has %d scans, %d joins, %d other nodes for %d relations", i, scans, joins, other, n)
		}
	}
}
