package opt

import (
	"testing"

	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestBushySystemRMatchesExhaustive: the bushy DP is exact for the fixed-
// memory objective.
func TestBushySystemRMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cat, q := randInstance(t, seed, 4, workload.Clique, seed%2 == 0)
		for _, mem := range []float64{40, 800} {
			dp, err := runConfig(cat, q, Options{}, Config{Space: SpaceBushy, Coster: FixedParams{Mem: mem}})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ex, err := ExhaustiveBushy(cat, q, Options{}, func(p plan.Node) float64 {
				return plan.Cost(p, mem)
			})
			if err != nil {
				t.Fatal(err)
			}
			if relDiff(dp.Cost, ex.Cost) > costTol {
				t.Errorf("seed %d mem %v: bushy DP %v != exhaustive %v", seed, mem, dp.Cost, ex.Cost)
			}
			if actual := plan.Cost(dp.Plan, mem); relDiff(dp.Cost, actual) > costTol {
				t.Errorf("seed %d: reported %v, actual %v", seed, dp.Cost, actual)
			}
		}
	}
}

// TestBushyAlgorithmCMatchesExhaustive: and for the expected-cost objective
// (Theorem 3.3 extends to bushy trees since the per-step decomposition is
// unchanged).
func TestBushyAlgorithmCMatchesExhaustive(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cat, q := randInstance(t, seed, 4, workload.Star, seed%2 == 1)
		dm := randMemDist3(seed + 201)
		dp, err := BushyAlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := ExhaustiveBushy(cat, q, Options{}, func(p plan.Node) float64 {
			return plan.ExpCost(p, dm)
		})
		if err != nil {
			t.Fatal(err)
		}
		if relDiff(dp.Cost, ex.Cost) > costTol {
			t.Errorf("seed %d: bushy C %v != exhaustive %v", seed, dp.Cost, ex.Cost)
		}
	}
}

// TestBushyNeverWorseThanLeftDeep: the bushy space contains every left-deep
// plan, so the bushy optimum cannot be worse.
func TestBushyNeverWorseThanLeftDeep(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		cat, q := randInstance(t, seed, 4, workload.Chain, seed%2 == 0)
		dm := randMemDist3(seed + 400)
		leftDeep, err := AlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		bushy, err := BushyAlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		if bushy.Cost > leftDeep.Cost*(1+costTol) {
			t.Errorf("seed %d: bushy %v worse than left-deep %v", seed, bushy.Cost, leftDeep.Cost)
		}
	}
}

// TestBushyCanBeatLeftDeep hunts for an instance where a bushy plan is
// strictly cheaper — the cost of the paper's heuristic 2.
func TestBushyCanBeatLeftDeep(t *testing.T) {
	found := false
	for seed := int64(0); seed < 80 && !found; seed++ {
		cat, q := randInstance(t, seed, 5, workload.Chain, false)
		dm := randMemDist3(seed + 900)
		leftDeep, err := AlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		bushy, err := BushyAlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		if bushy.Cost < leftDeep.Cost*(1-1e-9) {
			found = true
			t.Logf("seed %d: bushy %v beats left-deep %v (%.2f%%)",
				seed, bushy.Cost, leftDeep.Cost, 100*(1-bushy.Cost/leftDeep.Cost))
		}
	}
	if !found {
		t.Error("no instance where a bushy plan beat left-deep; expected at least one")
	}
}

// TestBushySingleTable falls back to the access-path choice.
func TestBushySingleTable(t *testing.T) {
	cat, q := randInstance(t, 2, 1, workload.Chain, false)
	res, err := BushyAlgorithmC(cat, q, Options{}, stats.Point(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Plan.(*plan.Scan); !ok {
		t.Errorf("plan is %T", res.Plan)
	}
}

// TestBushyPlanShape: at least one instance actually produces a plan whose
// right input is itself a join (a genuinely bushy tree).
func TestBushyPlanShape(t *testing.T) {
	found := false
	for seed := int64(0); seed < 80 && !found; seed++ {
		cat, q := randInstance(t, seed, 5, workload.Chain, false)
		dm := randMemDist3(seed + 900)
		res, err := BushyAlgorithmC(cat, q, Options{}, dm)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(res.Plan, func(n plan.Node) {
			if j, ok := n.(*plan.Join); ok {
				if _, leftJoin := j.Left.(*plan.Join); leftJoin {
					if _, rightJoin := j.Right.(*plan.Join); rightJoin {
						found = true
					}
				}
			}
		})
	}
	if !found {
		t.Error("no genuinely bushy plan found across 80 instances")
	}
}

// TestBushyWithPointDistEqualsBushySystemR: one-bucket special case.
func TestBushyWithPointDistEqualsBushySystemR(t *testing.T) {
	cat, q := randInstance(t, 6, 4, workload.Clique, true)
	fixed, err := runConfig(cat, q, Options{}, Config{Space: SpaceBushy, Coster: FixedParams{Mem: 300}})
	if err != nil {
		t.Fatal(err)
	}
	point, err := BushyAlgorithmC(cat, q, Options{}, stats.Point(300))
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(fixed.Cost, point.Cost) > costTol {
		t.Errorf("fixed %v != point-dist %v", fixed.Cost, point.Cost)
	}
}
