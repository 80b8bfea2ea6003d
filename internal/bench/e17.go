package bench

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E17Aggregation extends the LEC argument to the aggregate operator (the
// paper's §1 lists "sizes of groups" among the uncertain parameters):
// hash aggregation is free while the group table fits memory but pays a
// spill pass below that threshold; sort aggregation costs a sort unless the
// input already carries the group key's order. Across random GROUP BY
// queries, the distribution-aware choice is compared with the classical
// point-estimate choice.
func E17Aggregation() (*Table, error) {
	t := &Table{
		ID:     "E17",
		Title:  "GROUP BY: distribution-aware vs point-estimate aggregate choice (40 random 3-relation chains)",
		Claim:  "§1: group sizes and memory are uncertain parameters; the aggregate method choice has the same discontinuity structure as Example 1.1",
		Header: []string{"metric", "value"},
	}
	wins, ties, total := 0, 0, 0
	sumRatio, worst := 0.0, 1.0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 57))
		cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: 3})
		q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{NumRels: 3, Shape: workload.Chain})
		if err != nil {
			return nil, err
		}
		gb := query.ColumnRef{Table: q.Tables[0], Column: "fk"}
		q.GroupBy = &gb
		if seed%2 == 0 {
			ob := gb
			q.OrderBy = &ob
		}
		dm := stats.MustNew(
			[]float64{10 + rng.Float64()*90, 100 + rng.Float64()*900, 1000 + rng.Float64()*9000},
			[]float64{rng.Float64() + 0.05, rng.Float64() + 0.05, rng.Float64() + 0.05})
		lec, err := opt.OptimizeWithAggregation(context.Background(), cat, q, opt.Options{}, dm)
		if err != nil {
			return nil, err
		}
		lsc, err := opt.OptimizeWithAggregation(context.Background(), cat, q, opt.Options{}, stats.Point(dm.Mean()))
		if err != nil {
			return nil, err
		}
		lscUnder := plan.ExpCost(lsc.Plan, dm)
		if lscUnder < lec.Cost*(1-1e-9) {
			return nil, fmt.Errorf("E17: point-estimate plan beat the LEC choice — selection bug")
		}
		total++
		ratio := lscUnder / lec.Cost
		sumRatio += ratio
		if ratio > 1+1e-9 {
			wins++
			if ratio > worst {
				worst = ratio
			}
		} else {
			ties++
		}
	}
	t.AddRow("instances", fmt.Sprint(total))
	t.AddRow("LEC strictly better", fmt.Sprint(wins))
	t.AddRow("plans coincide", fmt.Sprint(ties))
	t.AddRow("mean E[LSC]/E[LEC]", f3(sumRatio/float64(total)))
	t.AddRow("worst case", f3(worst))
	t.Finding = fmt.Sprintf(
		"the aggregate decision is even more sensitive than the join decision: the distribution-aware choice is strictly better on %d/%d instances, by %.1fx on average and up to %.0fx — a spilled hash aggregate and a full-input external sort differ enormously, so guessing the wrong side of the group-table-fits threshold is very expensive",
		wins, total, sumRatio/float64(total), worst)
	return t, nil
}
