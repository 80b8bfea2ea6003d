package opt

// Benchmarks and latency-budget assertions for the tiered planner.
//
// BenchmarkTieredPlanning covers the three regimes the tier controller can
// land in:
//
//   - greedy/*    — tier pinned to greedy: the pure fast path, including
//                   optimizer construction and the lower-bound gap probe.
//                   These are the sub-100µs targets.
//   - escalate/*  — tier auto on an instance whose greedy gap blows the
//                   risk threshold: pays greedy + bound + the full DP.
//   - mixed/*     — a 10-query workload (8 low-risk, 2 high-risk) planned
//                   with tier auto vs. always-DP; the ratio of the two is
//                   the headline win of the fast path.
//
// The companion tests assert the budgets outright so the claim is enforced
// by `go test`, not just observable in bench output: greedy plans chain and
// star joins at n∈{10,20} under 100µs median, and the mixed workload's
// median planning latency is ≥10× lower under tier auto than always-DP.
// Both skip under -race (instrumentation inflates latency ~10×).

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// tierBenchDist matches the BenchmarkDPCore memory distribution so tier
// rows in the bench-smoke baseline are comparable with the DP-core rows.
func tierBenchDist() *stats.Dist {
	return stats.MustNew(
		[]float64{200, 700, 1500, 3000, 6000},
		[]float64{0.1, 0.2, 0.4, 0.2, 0.1})
}

type tierBenchInstance struct {
	name string
	cat  *catalog.Catalog
	q    *query.SPJ
}

// tierMixedWorkload is a deterministic 10-query mix: eight instances whose
// greedy gap clears the default risk threshold (served from the fast path)
// and two whose gap does not (escalate to the DP). The seeds are pinned so
// the serve/escalate split is stable; TestTierMixedWorkloadSpeedup verifies
// the split rather than trusting it.
func tierMixedWorkload(t testing.TB) []tierBenchInstance {
	specs := []struct {
		shape workload.Topology
		seed  int64
	}{
		{workload.Chain, 0}, {workload.Chain, 1}, {workload.Chain, 4},
		{workload.Star, 0}, {workload.Star, 1}, {workload.Star, 7},
		{workload.Clique, 0}, {workload.Clique, 4},
		// High-gap instances: greedy misses the optimum badly enough that
		// the controller must escalate.
		{workload.Chain, 2}, {workload.Star, 3},
	}
	out := make([]tierBenchInstance, 0, len(specs))
	for _, sp := range specs {
		cat, q := randInstance(t, sp.seed, 10, sp.shape, false)
		out = append(out, tierBenchInstance{
			name: sp.shape.String(), cat: cat, q: q,
		})
	}
	return out
}

func BenchmarkTieredPlanning(b *testing.B) {
	dm := tierBenchDist()

	for _, shape := range []workload.Topology{workload.Chain, workload.Star} {
		for _, n := range []int{10, 20} {
			cat, q := randInstance(b, 7, n, shape, false)
			b.Run(fmt.Sprintf("greedy/%v/n%d", shape, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Tiered(cat, q, Options{Tier: TierGreedy}, dm); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}

	// Star seed 2 at n=10 has a greedy gap far above the default threshold
	// that no DP level certifies: every request pays greedy + lower bound +
	// the full DP with the certificate checked at each level.
	escCat, escQ := randInstance(b, 2, 10, workload.Star, false)
	b.Run("escalate/star/n10", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := Tiered(escCat, escQ, Options{}, dm)
			if err != nil {
				b.Fatal(err)
			}
			if res.Tier != TierNameDP {
				b.Fatalf("expected escalation, served %s (%s)", res.Tier, res.TierReason)
			}
		}
	})

	mix := tierMixedWorkload(b)
	b.Run("mixed/auto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst := mix[i%len(mix)]
			if _, err := Tiered(inst.cat, inst.q, Options{}, dm); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mixed/dp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst := mix[i%len(mix)]
			if _, err := AlgorithmC(inst.cat, inst.q, Options{}, dm); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// medianLatency runs fn `runs` times after one warm-up call and returns the
// median wall-clock duration. Medians rather than means so a single
// scheduler hiccup cannot fail a latency budget.
func medianLatency(t testing.TB, runs int, fn func()) time.Duration {
	fn() // warm up: first call touches cold caches and allocator arenas
	ds := make([]time.Duration, runs)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// TestTierGreedyLatencyBudget enforces the fast path's reason to exist:
// greedy planning of chain and star joins at n∈{10,20} completes in under
// 100µs median, including optimizer construction and the gap probe.
func TestTierGreedyLatencyBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("latency budget not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("latency measurement skipped in -short mode")
	}
	const budget = 100 * time.Microsecond
	dm := tierBenchDist()
	for _, shape := range []workload.Topology{workload.Chain, workload.Star} {
		for _, n := range []int{10, 20} {
			cat, q := randInstance(t, 7, n, shape, false)
			med := medianLatency(t, 64, func() {
				res, err := Tiered(cat, q, Options{Tier: TierGreedy}, dm)
				if err != nil {
					t.Fatal(err)
				}
				if res.Tier != TierNameGreedy {
					t.Fatalf("pinned greedy served %s (%s)", res.Tier, res.TierReason)
				}
			})
			t.Logf("%v n=%d: median greedy latency %v", shape, n, med)
			if med > budget {
				t.Errorf("%v n=%d: median greedy latency %v exceeds %v budget", shape, n, med, budget)
			}
		}
	}
}

// TestTierMixedWorkloadSpeedup enforces the headline claim: over a mixed
// workload where most queries are low-risk, the tier-auto median planning
// latency is at least 10× lower than planning every query with the full DP.
func TestTierMixedWorkloadSpeedup(t *testing.T) {
	if raceEnabled {
		t.Skip("latency comparison not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("latency measurement skipped in -short mode")
	}
	dm := tierBenchDist()
	mix := tierMixedWorkload(t)

	// Sanity-check the workload composition so a risk-threshold change
	// can't silently turn this into a trivial comparison.
	served := 0
	for _, inst := range mix {
		res, err := Tiered(inst.cat, inst.q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tier == TierNameGreedy {
			served++
		}
	}
	if served < 6 || served == len(mix) {
		t.Fatalf("mixed workload serves %d/%d from greedy; want a majority but not all", served, len(mix))
	}

	perQuery := func(plan func(inst tierBenchInstance)) time.Duration {
		meds := make([]time.Duration, 0, len(mix))
		for _, inst := range mix {
			inst := inst
			meds = append(meds, medianLatency(t, 9, func() { plan(inst) }))
		}
		sort.Slice(meds, func(i, j int) bool { return meds[i] < meds[j] })
		return meds[len(meds)/2]
	}

	autoMed := perQuery(func(inst tierBenchInstance) {
		if _, err := Tiered(inst.cat, inst.q, Options{}, dm); err != nil {
			t.Fatal(err)
		}
	})
	dpMed := perQuery(func(inst tierBenchInstance) {
		if _, err := AlgorithmC(inst.cat, inst.q, Options{}, dm); err != nil {
			t.Fatal(err)
		}
	})

	t.Logf("mixed workload median: tier auto %v, always-DP %v (%.1f×)",
		autoMed, dpMed, float64(dpMed)/float64(autoMed))
	if autoMed*10 > dpMed {
		t.Errorf("tier auto median %v is not ≥10× below always-DP median %v", autoMed, dpMed)
	}
}
