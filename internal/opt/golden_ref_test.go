package opt

// This file pins the unified engine to the pre-refactor optimizer, line for
// line. Every seed* function below is a faithful copy of the seed's
// per-algorithm DP (the map-table left-deep DP, the bushy split DP, the
// top-c DP, and the per-bucket black-box loops with a fresh context per
// bucket), kept on the seed's stepCoster shape. TestGoldenEquivalenceSeed
// runs both implementations over a random workload corpus and requires
// byte-identical plan keys and exactly equal costs.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// seedStepCoster is the seed's step-costing interface (right operand fixed
// to a scan, relation index threaded through).
type seedStepCoster interface {
	joinStep(m cost.Method, left plan.Node, right *plan.Scan, s query.RelSet, j, phase int) float64
	sortStep(input plan.Node, phase int) float64
}

type seedFixedCoster struct {
	ctx *Context
	mem float64
}

func (f seedFixedCoster) joinStep(m cost.Method, left plan.Node, right *plan.Scan, _ query.RelSet, _, _ int) float64 {
	return cost.JoinCost(m, left.OutPages(), right.OutPages(), f.mem)
}

func (f seedFixedCoster) sortStep(input plan.Node, _ int) float64 {
	return cost.SortCost(input.OutPages(), f.mem)
}

type seedExpCoster struct {
	ctx *Context
	dm  *stats.Dist
}

func (e seedExpCoster) joinStep(m cost.Method, left plan.Node, right *plan.Scan, _ query.RelSet, _, _ int) float64 {
	return cost.ExpJoinCostMem(m, left.OutPages(), right.OutPages(), e.dm)
}

func (e seedExpCoster) sortStep(input plan.Node, _ int) float64 {
	pages := input.OutPages()
	return e.dm.Expect(func(mem float64) float64 { return cost.SortCost(pages, mem) })
}

type seedPhasedCoster struct {
	ctx    *Context
	phases []*stats.Dist
}

func (p seedPhasedCoster) distAt(phase int) *stats.Dist {
	if phase < 0 {
		phase = 0
	}
	if phase >= len(p.phases) {
		phase = len(p.phases) - 1
	}
	return p.phases[phase]
}

func (p seedPhasedCoster) joinStep(m cost.Method, left plan.Node, right *plan.Scan, _ query.RelSet, _, phase int) float64 {
	return cost.ExpJoinCostMem(m, left.OutPages(), right.OutPages(), p.distAt(phase))
}

func (p seedPhasedCoster) sortStep(input plan.Node, phase int) float64 {
	pages := input.OutPages()
	return p.distAt(phase).Expect(func(mem float64) float64 { return cost.SortCost(pages, mem) })
}

type seedCECoster struct {
	ctx    *Context
	phases []*stats.Dist
	gamma  float64
}

func (c seedCECoster) distAt(phase int) *stats.Dist {
	if phase < 0 {
		phase = 0
	}
	if phase >= len(c.phases) {
		phase = len(c.phases) - 1
	}
	return c.phases[phase]
}

func (c seedCECoster) joinStep(m cost.Method, left plan.Node, right *plan.Scan, _ query.RelSet, _, phase int) float64 {
	a, b := left.OutPages(), right.OutPages()
	return certEquiv(c.distAt(phase), c.gamma, func(mem float64) float64 { return cost.JoinCost(m, a, b, mem) })
}

func (c seedCECoster) sortStep(input plan.Node, phase int) float64 {
	pages := input.OutPages()
	return certEquiv(c.distAt(phase), c.gamma, func(mem float64) float64 { return cost.SortCost(pages, mem) })
}

type seedDistCoster struct {
	ctx *Context
	dm  *stats.Dist
}

func (dc seedDistCoster) joinStep(m cost.Method, left plan.Node, right *plan.Scan, s query.RelSet, j, _ int) float64 {
	da := dc.ctx.PagesDistOf(s.Without(j))
	db := dc.ctx.PagesDistOf(query.NewRelSet(j))
	return cost.ExpJoinCost3(m, da, db, dc.dm)
}

func (dc seedDistCoster) sortStep(input plan.Node, _ int) float64 {
	dp := dc.ctx.PagesDistOf(input.Rels())
	return stats.ExpectProduct(dp, dc.dm, cost.SortCost)
}

// seedRunDP is the seed's left-deep dynamic program (map-keyed DP table).
func seedRunDP(ctx *Context, sc seedStepCoster) (*Result, error) {
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	if n == 1 {
		return seedFinishSingle(ctx, sc)
	}

	best := make(map[query.RelSet]dpEntry, 1<<uint(n))
	for i := 0; i < n; i++ {
		s := ctx.BestScan(i)
		best[query.NewRelSet(i)] = dpEntry{node: s, cost: s.AccessCost()}
	}

	full := query.FullSet(n)
	var rootBest dpEntry
	rootBest.cost = math.Inf(1)
	var rootFound bool

	for d := 2; d <= n; d++ {
		query.SubsetsOfSize(n, d, func(s query.RelSet) {
			entry := dpEntry{cost: math.Inf(1)}
			s.ForEach(func(j int) {
				sj := s.Without(j)
				left, ok := best[sj]
				if !ok {
					return
				}
				if !ctx.extensionAllowed(sj, j) {
					return
				}
				scan := ctx.BestScan(j)
				base := left.cost + scan.AccessCost()
				for _, m := range ctx.Opts.methods() {
					stepCost := sc.joinStep(m, left.node, scan, s, j, d-2)
					total := base + stepCost
					if total < entry.cost {
						entry = dpEntry{
							node: ctx.NewJoin(left.node, scan, m, s, j),
							cost: total,
						}
					}
					if s == full && !ctx.Opts.NaiveOrderHandling {
						cand := ctx.NewJoin(left.node, scan, m, s, j)
						finished, added := ctx.FinishPlan(cand)
						ft := total
						if added {
							ft += sc.sortStep(cand, d-2)
						}
						if ft < rootBest.cost {
							rootBest = dpEntry{node: finished, cost: ft}
							rootFound = true
						}
					}
				}
			})
			if !math.IsInf(entry.cost, 1) {
				best[s] = entry
			}
		})
	}
	if ctx.Opts.NaiveOrderHandling {
		entry, ok := best[full]
		if !ok {
			return nil, fmt.Errorf("opt: no plan found (disconnected lattice?)")
		}
		finished, added := ctx.FinishPlan(entry.node)
		total := entry.cost
		if added {
			total += sc.sortStep(entry.node, n-2)
		}
		return &Result{Plan: finished, Cost: total, Count: ctx.Count}, nil
	}
	if !rootFound {
		return nil, fmt.Errorf("opt: no plan found (disconnected lattice?)")
	}
	return &Result{Plan: rootBest.node, Cost: rootBest.cost, Count: ctx.Count}, nil
}

func seedFinishSingle(ctx *Context, sc seedStepCoster) (*Result, error) {
	bestCost := math.Inf(1)
	var bestNode plan.Node
	for _, s := range ctx.Scans(0) {
		finished, added := ctx.FinishPlan(s)
		total := s.AccessCost()
		if added {
			total += sc.sortStep(s, 0)
		}
		if total < bestCost {
			bestCost, bestNode = total, finished
		}
	}
	if bestNode == nil {
		return nil, fmt.Errorf("opt: no access path")
	}
	return &Result{Plan: bestNode, Cost: bestCost, Count: ctx.Count}, nil
}

// seedBushyCoster is the seed's bushy pricing interface (sizes only).
type seedBushyCoster interface {
	join(m cost.Method, aPages, bPages float64) float64
	sort(pages float64) float64
}

type seedBushyFixed struct{ mem float64 }

func (b seedBushyFixed) join(m cost.Method, a, bp float64) float64 {
	return cost.JoinCost(m, a, bp, b.mem)
}
func (b seedBushyFixed) sort(pages float64) float64 { return cost.SortCost(pages, b.mem) }

type seedBushyExp struct{ dm *stats.Dist }

func (b seedBushyExp) join(m cost.Method, a, bp float64) float64 {
	return cost.ExpJoinCostMem(m, a, bp, b.dm)
}

func (b seedBushyExp) sort(pages float64) float64 {
	return b.dm.Expect(func(mem float64) float64 { return cost.SortCost(pages, mem) })
}

type seedSortOnly struct{ bc seedBushyCoster }

func (s seedSortOnly) joinStep(cost.Method, plan.Node, *plan.Scan, query.RelSet, int, int) float64 {
	panic("opt: joinStep on single-relation query")
}

func (s seedSortOnly) sortStep(input plan.Node, _ int) float64 {
	return s.bc.sort(input.OutPages())
}

// seedBushyDP is the seed's all-splits bushy dynamic program.
func seedBushyDP(ctx *Context, bc seedBushyCoster) (*Result, error) {
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	if n == 1 {
		return seedFinishSingle(ctx, seedSortOnly{bc})
	}
	best := make(map[query.RelSet]dpEntry, 1<<uint(n))
	for i := 0; i < n; i++ {
		s := ctx.BestScan(i)
		best[query.NewRelSet(i)] = dpEntry{node: s, cost: s.AccessCost()}
	}
	full := query.FullSet(n)
	rootBest := dpEntry{cost: math.Inf(1)}
	var rootFound bool

	for d := 2; d <= n; d++ {
		query.SubsetsOfSize(n, d, func(s query.RelSet) {
			entry := dpEntry{cost: math.Inf(1)}
			lowest := query.NewRelSet(s.Members()[0])
			for l := (s - 1) & s; l != 0; l = (l - 1) & s {
				if !l.Contains(lowest) {
					continue
				}
				r := s &^ l
				le, lok := best[l]
				re, rok := best[r]
				if !lok || !rok {
					continue
				}
				if ctx.Opts.AvoidCrossProducts && len(ctx.predsBetween(l, r)) == 0 && !crossUnavoidable(ctx, s) {
					continue
				}
				base := le.cost + re.cost
				for _, m := range ctx.Opts.methods() {
					for _, ord := range [2][2]dpEntry{{le, re}, {re, le}} {
						stepCost := bc.join(m, ord[0].node.OutPages(), ord[1].node.OutPages())
						total := base + stepCost
						if total < entry.cost {
							entry = dpEntry{
								node: ctx.newBushyJoin(ord[0].node, ord[1].node, m, s),
								cost: total,
							}
						}
						if s == full {
							cand := ctx.newBushyJoin(ord[0].node, ord[1].node, m, s)
							finished, added := ctx.FinishPlan(cand)
							ft := total
							if added {
								ft += bc.sort(cand.OutPages())
							}
							if ft < rootBest.cost {
								rootBest = dpEntry{node: finished, cost: ft}
								rootFound = true
							}
						}
					}
				}
			}
			if !math.IsInf(entry.cost, 1) {
				best[s] = entry
			}
		})
	}
	if !rootFound {
		return nil, fmt.Errorf("opt: bushy DP found no plan")
	}
	return &Result{Plan: rootBest.node, Cost: rootBest.cost, Count: ctx.Count}, nil
}

func seedSortTruncate(entries []topEntry, c int) []topEntry {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].cost != entries[j].cost {
			return entries[i].cost < entries[j].cost
		}
		return entries[i].node.Key() < entries[j].node.Key()
	})
	if len(entries) > c {
		entries = entries[:c]
	}
	return entries
}

func seedMergeTopC(left []topEntry, scans []topEntry, stepCost float64, c int,
	build func(l, r topEntry) plan.Node) []topEntry {
	var out []topEntry
	for i := 1; i <= len(left) && i <= c; i++ {
		maxK := c / i
		for k := 1; k <= len(scans) && k <= maxK; k++ {
			l, r := left[i-1], scans[k-1]
			out = append(out, topEntry{
				node: build(l, r),
				cost: l.cost + r.cost + stepCost,
			})
		}
	}
	return out
}

func seedFinishEntry(ctx *Context, sc seedStepCoster, e topEntry, phase int) topEntry {
	finished, added := ctx.FinishPlan(e.node)
	total := e.cost
	if added {
		total += sc.sortStep(e.node, phase)
	}
	return topEntry{node: finished, cost: total}
}

// seedTopCDP is the seed's top-c variant of the dynamic program.
func seedTopCDP(ctx *Context, sc seedStepCoster, c int) ([]topEntry, error) {
	n := ctx.Q.NumRels()
	if n == 0 {
		return nil, fmt.Errorf("opt: empty query")
	}
	scanLists := make([][]topEntry, n)
	for i := 0; i < n; i++ {
		var l []topEntry
		for _, s := range ctx.Scans(i) {
			l = append(l, topEntry{node: s, cost: s.AccessCost()})
		}
		scanLists[i] = seedSortTruncate(l, c)
	}
	if n == 1 {
		var roots []topEntry
		for _, e := range scanLists[0] {
			roots = append(roots, seedFinishEntry(ctx, sc, e, 0))
		}
		return seedSortTruncate(roots, c), nil
	}

	lists := make(map[query.RelSet][]topEntry, 1<<uint(n))
	for i := 0; i < n; i++ {
		lists[query.NewRelSet(i)] = scanLists[i]
	}
	full := query.FullSet(n)
	var roots []topEntry

	for d := 2; d <= n; d++ {
		query.SubsetsOfSize(n, d, func(s query.RelSet) {
			var merged []topEntry
			s.ForEach(func(j int) {
				sj := s.Without(j)
				left := lists[sj]
				if len(left) == 0 || !ctx.extensionAllowed(sj, j) {
					return
				}
				for _, m := range ctx.Opts.methods() {
					stepCost := sc.joinStep(m, left[0].node, scanLists[j][0].node.(*plan.Scan), s, j, d-2)
					merged = append(merged, seedMergeTopC(left, scanLists[j], stepCost, c,
						func(l, r topEntry) plan.Node {
							return ctx.NewJoin(l.node, r.node.(*plan.Scan), m, s, j)
						})...)
				}
			})
			if s == full {
				for _, e := range merged {
					roots = append(roots, seedFinishEntry(ctx, sc, e, d-2))
				}
			}
			lists[s] = seedSortTruncate(merged, c)
		})
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("opt: no plan found")
	}
	return seedSortTruncate(roots, c), nil
}

// seedAlgorithmA is the seed's per-bucket black-box loop: a fresh context
// per bucket invocation.
func seedAlgorithmA(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	seen := map[string]bool{}
	var cands []plan.Node
	for i := 0; i < dm.Len(); i++ {
		ctx, err := NewContext(cat, q, opts)
		if err != nil {
			return nil, err
		}
		res, err := seedRunDP(ctx, seedFixedCoster{ctx: ctx, mem: dm.Value(i)})
		if err != nil {
			return nil, err
		}
		if key := res.Plan.Key(); !seen[key] {
			seen[key] = true
			cands = append(cands, res.Plan)
		}
	}
	best, bestCost := pickLeastExpected(cands, dm)
	if best == nil {
		return nil, fmt.Errorf("opt: algorithm A produced no candidates")
	}
	return &Result{Plan: best, Cost: bestCost}, nil
}

// seedAlgorithmB is the seed's per-bucket top-c loop.
func seedAlgorithmB(cat *catalog.Catalog, q *query.SPJ, opts Options, dm *stats.Dist) (*Result, error) {
	c := opts.topC()
	seen := map[string]bool{}
	var cands []plan.Node
	for i := 0; i < dm.Len(); i++ {
		ctx, err := NewContext(cat, q, opts)
		if err != nil {
			return nil, err
		}
		roots, err := seedTopCDP(ctx, seedFixedCoster{ctx: ctx, mem: dm.Value(i)}, c)
		if err != nil {
			return nil, err
		}
		for _, r := range roots {
			if key := r.node.Key(); !seen[key] {
				seen[key] = true
				cands = append(cands, r.node)
			}
		}
	}
	best, bestCost := pickLeastExpected(cands, dm)
	if best == nil {
		return nil, fmt.Errorf("opt: algorithm B produced no candidates")
	}
	return &Result{Plan: best, Cost: bestCost}, nil
}

// goldenInstance is one randomly generated catalog/query/distribution.
type goldenInstance struct {
	cat    *catalog.Catalog
	q      *query.SPJ
	opts   Options
	dm     *stats.Dist
	phases []*stats.Dist
	chain  *stats.Chain
	gamma  float64
}

func randomGoldenInstance(t *testing.T, seed int64) goldenInstance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 3 + rng.Intn(3) // 3..5 relations: exhaustive pipelined stays fast
	shape := workload.Topology(rng.Intn(4))
	cat := workload.RandomCatalog(rng, workload.CatalogSpec{NumTables: n, SizeSpread: 0.5})
	q, err := workload.RandomQuery(rng, cat, workload.QuerySpec{
		NumRels: n, Shape: shape,
		OrderBy:       rng.Intn(2) == 0,
		SelectionProb: 0.3,
		SelSpread:     0.4,
	})
	if err != nil {
		t.Fatalf("RandomQuery: %v", err)
	}
	b := 2 + rng.Intn(3) // 2..4 memory buckets
	vals := make([]float64, b)
	probs := make([]float64, b)
	v := 100 + rng.Float64()*400
	total := 0.0
	for i := range vals {
		vals[i] = v
		v *= 2 + rng.Float64()*2
		probs[i] = 0.1 + rng.Float64()
		total += probs[i]
	}
	for i := range probs {
		probs[i] /= total
	}
	dm := stats.MustNew(vals, probs)
	// A simple 2-phase schedule plus a lazy random-walk chain over dm's values.
	phases := []*stats.Dist{dm, stats.Point(vals[b-1])}
	p := make([][]float64, b)
	for i := range p {
		p[i] = make([]float64, b)
		p[i][i] = 0.6
		rest := 0.4 / float64(b-1)
		for j := range p[i] {
			if j != i {
				p[i][j] = rest
			}
		}
	}
	return goldenInstance{
		cat: cat, q: q,
		opts:   Options{AvoidCrossProducts: rng.Intn(2) == 0},
		dm:     dm,
		phases: phases,
		chain:  stats.MustNewChain(vals, p),
		gamma:  1e-5,
	}
}

// TestGoldenEquivalenceSeed checks every engine-backed entry point against
// its seed implementation over a random corpus: plans must have
// byte-identical keys and exactly equal (==) objective values.
func TestGoldenEquivalenceSeed(t *testing.T) {
	const instances = 25
	runs := 0
	check := func(name string, inst int, got, want *Result, gotErr, wantErr error) {
		t.Helper()
		runs++
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("instance %d %s: engine err=%v seed err=%v", inst, name, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.Plan.Key() != want.Plan.Key() {
			t.Errorf("instance %d %s: plan mismatch\nengine: %s\nseed:   %s", inst, name, got.Plan.Key(), want.Plan.Key())
		}
		if got.Cost != want.Cost {
			t.Errorf("instance %d %s: cost mismatch engine=%v seed=%v", inst, name, got.Cost, want.Cost)
		}
	}
	for i := 0; i < instances; i++ {
		gi := randomGoldenInstance(t, int64(9000+i))
		newCtx := func() *Context {
			ctx, err := NewContext(gi.cat, gi.q, gi.opts)
			if err != nil {
				t.Fatalf("instance %d: NewContext: %v", i, err)
			}
			return ctx
		}

		// SystemR at the mean and at each bucket value.
		for _, mem := range []float64{gi.dm.Mean(), gi.dm.Value(0)} {
			got, gotErr := SystemR(gi.cat, gi.q, gi.opts, mem)
			ctx := newCtx()
			want, wantErr := seedRunDP(ctx, seedFixedCoster{ctx: ctx, mem: mem})
			check(fmt.Sprintf("SystemR(%g)", mem), i, got, want, gotErr, wantErr)
		}

		// Algorithm C (static distribution).
		{
			got, gotErr := AlgorithmC(gi.cat, gi.q, gi.opts, gi.dm)
			ctx := newCtx()
			want, wantErr := seedRunDP(ctx, seedExpCoster{ctx: ctx, dm: gi.dm})
			check("AlgorithmC", i, got, want, gotErr, wantErr)
		}

		// Algorithm C dynamic (Markov phases).
		{
			got, gotErr := AlgorithmCDynamic(gi.cat, gi.q, gi.opts, gi.chain, gi.dm)
			ctx := newCtx()
			want, wantErr := seedRunDP(ctx, seedPhasedCoster{ctx: ctx, phases: PhaseDistsFor(gi.q, gi.chain, gi.dm)})
			check("AlgorithmCDynamic", i, got, want, gotErr, wantErr)
		}

		// Algorithms A and B (per-bucket loops; the engine shares one session).
		{
			got, gotErr := AlgorithmA(context.Background(), gi.cat, gi.q, gi.opts, gi.dm)
			want, wantErr := seedAlgorithmA(gi.cat, gi.q, gi.opts, gi.dm)
			check("AlgorithmA", i, got, want, gotErr, wantErr)
		}
		{
			got, gotErr := AlgorithmB(context.Background(), gi.cat, gi.q, gi.opts, gi.dm)
			want, wantErr := seedAlgorithmB(gi.cat, gi.q, gi.opts, gi.dm)
			check("AlgorithmB", i, got, want, gotErr, wantErr)
		}

		// Algorithm D (multi-parameter distributions).
		{
			got, gotErr := AlgorithmD(gi.cat, gi.q, gi.opts, gi.dm)
			ctx := newCtx()
			want, wantErr := seedRunDP(ctx, seedDistCoster{ctx: ctx, dm: gi.dm})
			check("AlgorithmD", i, got, want, gotErr, wantErr)
		}

		// Bushy DPs.
		{
			mem := gi.dm.Mean()
			got, gotErr := runConfig(gi.cat, gi.q, gi.opts, Config{Space: SpaceBushy, Coster: FixedParams{Mem: mem}})
			want, wantErr := seedBushyDP(newCtx(), seedBushyFixed{mem: mem})
			check("BushySystemR", i, got, want, gotErr, wantErr)
		}
		{
			got, gotErr := BushyAlgorithmC(gi.cat, gi.q, gi.opts, gi.dm)
			want, wantErr := seedBushyDP(newCtx(), seedBushyExp{dm: gi.dm})
			check("BushyAlgorithmC", i, got, want, gotErr, wantErr)
		}

		// Exponential-utility DP (independent per-phase memory).
		{
			got, gotErr := ExpUtilityDP(gi.cat, gi.q, gi.opts, gi.phases, gi.gamma)
			ctx := newCtx()
			want, wantErr := seedRunDP(ctx, seedCECoster{ctx: ctx, phases: gi.phases, gamma: gi.gamma})
			check("ExpUtilityDP", i, got, want, gotErr, wantErr)
		}

		// Pipelined space (exhaustive under the pipeline phase model).
		{
			got, gotErr := ExhaustivePipelined(gi.cat, gi.q, gi.opts, gi.phases)
			want, wantErr := Exhaustive(gi.cat, gi.q, gi.opts, func(p plan.Node) float64 {
				return plan.ExpCostPipelined(p, gi.phases)
			})
			check("ExhaustivePipelined", i, got, want, gotErr, wantErr)
		}
	}
	if runs < 200 {
		t.Fatalf("golden corpus too small: %d runs, want >= 200", runs)
	}
	t.Logf("golden equivalence: %d engine-vs-seed runs", runs)
}

// TestGoldenEquivalenceNaiveOrder pins the NaiveOrderHandling ablation path
// of the left-deep DP, which the main corpus (random OrderBy) exercises
// only with the default root handling.
func TestGoldenEquivalenceNaiveOrder(t *testing.T) {
	for i := 0; i < 5; i++ {
		gi := randomGoldenInstance(t, int64(7700+i))
		gi.opts.NaiveOrderHandling = true
		got, gotErr := AlgorithmC(gi.cat, gi.q, gi.opts, gi.dm)
		ctx, err := NewContext(gi.cat, gi.q, gi.opts)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := seedRunDP(ctx, seedExpCoster{ctx: ctx, dm: gi.dm})
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("instance %d: engine err=%v seed err=%v", i, gotErr, wantErr)
		}
		if gotErr == nil && (got.Plan.Key() != want.Plan.Key() || got.Cost != want.Cost) {
			t.Errorf("instance %d: naive-order mismatch: engine (%s, %v) vs seed (%s, %v)",
				i, got.Plan.Key(), got.Cost, want.Plan.Key(), want.Cost)
		}
	}
}
