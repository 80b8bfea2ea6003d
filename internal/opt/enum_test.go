package opt

// Property tests for the pluggable enumeration seam (graph-aware csg
// enumeration vs the exhaustive lattice). The load-bearing claims:
//
//   - a plan whose joins all carry predicates has only connected
//     intermediate subsets, so whenever the exhaustive winner is
//     cross-join-free the connected enumerator finds the *same* winner at
//     the same cost;
//   - the skipped/enumerated counters partition the lattice exactly;
//   - the per-subset tables pick their layout from the relation count and
//     their entry count, and stay unallocated until first use.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/workload"
)

// crossJoinFree reports whether every join in the plan applies at least one
// predicate — i.e. the plan contains no cross join.
func crossJoinFree(n plan.Node) bool {
	free := true
	plan.Walk(n, func(nd plan.Node) {
		if j, ok := nd.(*plan.Join); ok && len(j.Preds) == 0 {
			free = false
		}
	})
	return free
}

// enumShapes is the mixed-topology rotation the random-graph properties
// cycle through.
var enumShapes = []workload.Topology{
	workload.Chain, workload.Star, workload.Clique, workload.RandomTree, workload.Cycle,
}

// TestConnectedMatchesExhaustiveRandomGraphs drives 160 random join graphs
// (n ≤ 9, mixed shapes, both plan spaces, fixed and distribution costers)
// through both enumerators and checks:
//
//  1. when the exhaustive winner is cross-join-free, the connected run
//     returns the identical plan at the bit-identical cost;
//  2. the connected run never visits more subsets than the exhaustive one;
//  3. enumerated + skipped partition the binomial lattice exactly.
func TestConnectedMatchesExhaustiveRandomGraphs(t *testing.T) {
	dm := stats.MustNew([]float64{200, 900, 4000}, []float64{0.3, 0.4, 0.3})
	cases, crossJoinWinners := 0, 0
	for i := 0; i < 160; i++ {
		seed := int64(9000 + i)
		n := 2 + i%8 // 2..9
		shape := enumShapes[i%len(enumShapes)]
		space := SpaceLeftDeep
		if i%2 == 1 {
			space = SpaceBushy
		}
		var coster Coster = FixedParams{Mem: dm.Mean()}
		if i%3 == 0 {
			coster = StaticParams{Mem: dm}
		}
		cfg := Config{Space: space, Coster: coster}
		cat, q := randInstance(t, seed, n, shape, i%4 == 0)

		optimize := func(e Enumeration) (*Result, Stats) {
			eng, err := NewOptimizer(cat, q, Options{Enumeration: e}, cfg)
			if err != nil {
				t.Fatalf("case %d: NewOptimizer: %v", i, err)
			}
			res, err := eng.Optimize()
			if err != nil {
				t.Fatalf("case %d (%v n=%d %v): Optimize(%v): %v", i, shape, n, space, e, err)
			}
			return res, eng.Stats()
		}
		ex, exStats := optimize(EnumExhaustive)
		cn, cnStats := optimize(EnumConnected)
		cases++

		if cn.Enumeration != EnumConnected {
			t.Errorf("case %d: effective enumeration %v, want connected (graph is shape-connected)", i, cn.Enumeration)
		}
		if crossJoinFree(ex.Plan) {
			if cn.Plan.Key() != ex.Plan.Key() {
				t.Errorf("case %d (%v n=%d %v): connected plan %s != exhaustive %s",
					i, shape, n, space, cn.Plan.Key(), ex.Plan.Key())
			}
			if math.Float64bits(cn.Cost) != math.Float64bits(ex.Cost) {
				t.Errorf("case %d (%v n=%d %v): connected cost %v != exhaustive %v",
					i, shape, n, space, cn.Cost, ex.Cost)
			}
		} else {
			crossJoinWinners++
			// The exhaustive winner needs a cross join; the connected plan
			// must still be valid and can only cost more.
			if cn.Cost < ex.Cost {
				t.Errorf("case %d: connected cost %v beats exhaustive %v despite smaller space",
					i, cn.Cost, ex.Cost)
			}
		}
		checkValidPlan(t, cn, q, "connected")

		if cnStats.Subsets > exStats.Subsets {
			t.Errorf("case %d: connected visited %d subsets > exhaustive %d",
				i, cnStats.Subsets, exStats.Subsets)
		}
		if exStats.SubsetsSkipped != 0 {
			t.Errorf("case %d: exhaustive SubsetsSkipped = %d, want 0", i, exStats.SubsetsSkipped)
		}
		var lattice int64
		for d := 2; d <= n; d++ {
			lattice += query.Binomial(n, d)
		}
		if got := int64(cnStats.SubsetsEnumerated + cnStats.SubsetsSkipped); got != lattice {
			t.Errorf("case %d (%v n=%d): enumerated %d + skipped %d = %d does not partition lattice %d",
				i, shape, n, cnStats.SubsetsEnumerated, cnStats.SubsetsSkipped, got, lattice)
		}
		if shape == workload.Clique && cnStats.SubsetsSkipped != 0 {
			t.Errorf("case %d: clique skipped %d subsets, want 0 (all subsets connected)",
				i, cnStats.SubsetsSkipped)
		}
		if (shape == workload.Chain || shape == workload.Cycle) && n >= 5 && cnStats.SubsetsSkipped == 0 {
			t.Errorf("case %d (%v n=%d): connected enumerator skipped nothing", i, shape, n)
		}
	}
	t.Logf("%d random graphs; %d exhaustive winners contained a cross join", cases, crossJoinWinners)
}

// TestDisconnectedGraphFallsBackToExhaustive: a query with join predicates
// on only part of the relations has a disconnected join graph; EnumConnected
// must degrade to the exhaustive lattice and still plan (with the mandatory
// cross join).
func TestDisconnectedGraphFallsBackToExhaustive(t *testing.T) {
	cat, q := randInstance(t, 9601, 5, workload.Chain, false)
	// Sever the chain: drop every predicate touching the last relation.
	last := q.Tables[len(q.Tables)-1]
	var joins []query.JoinPred
	for _, p := range q.Joins {
		if p.Left.Table != last && p.Right.Table != last {
			joins = append(joins, p)
		}
	}
	q.Joins = joins
	eng, err := NewOptimizer(cat, q, Options{Enumeration: EnumConnected}, Config{Coster: FixedParams{Mem: 900}})
	if err != nil {
		t.Fatalf("NewOptimizer: %v", err)
	}
	res, err := eng.Optimize()
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Enumeration != EnumExhaustive {
		t.Errorf("effective enumeration %v, want exhaustive fallback", res.Enumeration)
	}
	if crossJoinFree(res.Plan) {
		t.Errorf("disconnected graph planned without a cross join: %s", res.Plan.Key())
	}
	checkValidPlan(t, res, q, "disconnected-fallback")
	if st := eng.Stats(); st.SubsetsSkipped != 0 {
		t.Errorf("fallback run skipped %d subsets, want 0", st.SubsetsSkipped)
	}
}

// TestFaultMatrixConnected runs the fault matrix with the connected
// enumerator on a cycle graph.
func TestFaultMatrixConnected(t *testing.T) {
	runFaultMatrix(t, Options{Enumeration: EnumConnected}, 9401, 7, workload.Cycle)
}

// TestMemoSizingPolicy pins the per-subset tables' three-band layout rule:
// dense on first write up to denseSmallMaxRels relations; sparse on first
// write up to denseMemoMaxRels, moving to dense once the table holds 2^n/8
// entries; always sparse past that. Through whole runs: an exhaustive or
// clique DP goes dense, a connected chain DP and the greedy tier's probe
// stay sparse.
func TestMemoSizingPolicy(t *testing.T) {
	fill := func(tab *subsetTab[float64], count int) {
		for k := 0; k < count; k++ {
			tab.put(query.RelSet(k), 1)
		}
	}
	for _, n := range []int{1, 8, denseSmallMaxRels} {
		tab := nanTab(n)
		tab.put(query.NewRelSet(0), 1)
		if tab.dense == nil || len(tab.dense) != 1<<uint(n) {
			t.Errorf("n=%d: first write left the table sparse, want dense", n)
		}
	}
	for _, n := range []int{denseSmallMaxRels + 1, 16, denseMemoMaxRels} {
		tab := nanTab(n)
		tab.put(query.NewRelSet(0), 1)
		if tab.sparse == nil || len(tab.sparse.keys) != len(newSparseTab[float64](n*(n+1)/2).keys) {
			t.Fatalf("n=%d: first write did not start a chain-sized sparse table", n)
		}
		at := 1 << uint(n) / 8
		fill(tab, at-1)
		if tab.dense != nil {
			t.Errorf("n=%d: dense after %d entries, want sparse below %d", n, at-1, at)
		}
		fill(tab, at)
		if tab.dense == nil || tab.sparse != nil {
			t.Errorf("n=%d: sparse after %d entries, want dense", n, at)
		}
	}
	for _, n := range []int{denseMemoMaxRels + 1, 24} {
		tab := nanTab(n)
		fill(tab, 1<<uint(denseMemoMaxRels)/8)
		if tab.sparse == nil || tab.dense != nil {
			t.Errorf("n=%d: went dense, want always sparse", n)
		}
	}

	dm := tierBenchDist()
	run := func(t *testing.T, n int, shape workload.Topology, opts Options) *Optimizer {
		t.Helper()
		cat, q := randInstance(t, 9500+int64(n), n, shape, false)
		eng, err := NewOptimizer(cat, q, opts, Config{Coster: StaticParams{Mem: dm}})
		if err != nil {
			t.Fatalf("NewOptimizer: %v", err)
		}
		if _, err := eng.Optimize(); err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		return eng
	}
	// A 14-relation exhaustive sweep and a 14-relation clique's connected
	// family both touch the whole lattice.
	for _, opts := range []Options{{}, {Enumeration: EnumConnected}} {
		shape := workload.Chain
		if opts.Enumeration == EnumConnected {
			shape = workload.Clique
		}
		eng := run(t, 14, shape, opts)
		if eng.ctx.subsetRows.dense == nil || eng.dpt.dense == nil {
			t.Errorf("%v n=14 %v: DP tables sparse, want dense", opts.Enumeration, shape)
		}
	}
	// A 16-chain has 136 connected subsets of 65536.
	eng := run(t, 16, workload.Chain, Options{Enumeration: EnumConnected})
	if eng.ctx.subsetRows.sparse == nil || eng.dpt.sparse == nil {
		t.Error("connected n=16 chain: DP tables dense, want sparse")
	}
	// The greedy tier touches O(n²) subsets of the 2^20 lattice.
	eng = run(t, 20, workload.Star, Options{Tier: TierGreedy})
	if eng.ctx.subsetRows.sparse == nil || eng.ctx.subsetPages.sparse == nil {
		t.Error("greedy tier n=20: size memos dense, want sparse")
	}
}

// TestMemoLazyAllocation: table backings must not be allocated before first
// use — the satellite fix for the old always-2^n allocation in NewContext.
func TestMemoLazyAllocation(t *testing.T) {
	dense := nanTab(10)
	if dense.dense != nil {
		t.Fatal("10-relation table allocated its backing before first put")
	}
	if v := dense.get(query.NewRelSet(3)); !math.IsNaN(v) {
		t.Fatalf("empty table read %v, want NaN", v)
	}
	dense.put(query.NewRelSet(3), 42)
	if v := dense.get(query.NewRelSet(3)); v != 42 {
		t.Fatalf("dense get = %v after put", v)
	}
	if v := dense.get(query.NewRelSet(4)); !math.IsNaN(v) {
		t.Fatalf("dense get of an unset subset = %v, want NaN", v)
	}

	sparse := nanTab(25)
	if sparse.sparse != nil {
		t.Fatal("25-relation table allocated its backing before first put")
	}
	big := query.FullSet(25).Without(3)
	sparse.put(big, 7)
	if v := sparse.get(big); v != 7 {
		t.Fatalf("sparse get = %v after put", v)
	}
	if v := sparse.get(query.FullSet(25)); !math.IsNaN(v) {
		t.Fatalf("sparse get of an unset subset = %v, want NaN", v)
	}
}

// TestSubsetTabMatchesMap drives random put, get and accumulate operations
// against a map oracle in each layout band. The 14-relation table crosses
// the move to dense mid-stream, where every entry written so far must
// survive; ascendingSum must equal the oracle's ascending-order sum bit for
// bit.
func TestSubsetTabMatchesMap(t *testing.T) {
	for _, n := range []int{8, 14, 24} {
		rng := rand.New(rand.NewSource(int64(n)))
		tab := &subsetTab[float64]{n: n}
		oracle := map[query.RelSet]float64{}
		// Keys come from a pool twice the size of the dense threshold, so
		// the 14-relation table passes it part way through.
		pool := 1 << uint(n)
		if n > denseSmallMaxRels {
			pool = 2 * (1 << uint(14) / 8)
		}
		key := func() query.RelSet {
			return query.RelSet(rng.Intn(pool) * (1 << uint(n) / pool))
		}
		check := func(when string) {
			for k, want := range oracle {
				if got := tab.get(k); got != want {
					t.Fatalf("n=%d %s: get(%v) = %v, want %v", n, when, k, got, want)
				}
			}
		}
		wasDense := false
		for op := 0; op < 6000; op++ {
			k := key()
			switch rng.Intn(3) {
			case 0:
				v := rng.Float64() * 100
				tab.put(k, v)
				oracle[k] = v
			case 1:
				v := rng.Float64()
				*tab.ref(k) += v
				oracle[k] += v
			default:
				if got := tab.get(k); got != oracle[k] {
					t.Fatalf("n=%d op %d: get(%v) = %v, want %v", n, op, k, got, oracle[k])
				}
			}
			if !wasDense && tab.dense != nil {
				wasDense = true
				check(fmt.Sprintf("after the move to dense at op %d", op))
			}
		}
		check("at the end")
		if len(oracle) < pool/2 {
			t.Fatalf("n=%d: only %d distinct subsets written", n, len(oracle))
		}
		if want := n <= 20; wasDense != want {
			t.Errorf("n=%d: dense = %v, want %v", n, wasDense, want)
		}
		keys := make([]query.RelSet, 0, len(oracle))
		for k := range oracle {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		want := 0.0
		for _, k := range keys {
			want += oracle[k]
		}
		if got := ascendingSum(tab); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("n=%d: ascendingSum = %v, want %v bit for bit", n, got, want)
		}
	}
}

// TestSparseTabStress: the open-addressed table must survive growth and
// dense key clustering while agreeing with a map oracle.
func TestSparseTabStress(t *testing.T) {
	tab := newSparseTab[int](4)
	oracle := map[query.RelSet]int{}
	put := func(s query.RelSet, v int) {
		p, _ := tab.ref(s)
		*p = v
		oracle[s] = v
	}
	// Clustered keys: every connected subset of a 16-chain plus a stride.
	g := query.NewGraph(16)
	for i := 0; i < 15; i++ {
		g.AddEdge(i, i+1)
	}
	e := query.NewCsgEnum(g)
	for d := 1; d <= 16; d++ {
		for _, s := range e.Level(d) {
			put(s, int(s)*3)
		}
	}
	for i := 0; i < 1000; i += 7 {
		put(query.RelSet(i), i)
	}
	if tab.used != len(oracle) {
		t.Fatalf("sparseTab holds %d entries, oracle %d", tab.used, len(oracle))
	}
	for s, want := range oracle {
		if got, ok := tab.get(s); !ok || got != want {
			t.Fatalf("sparseTab[%v] = %v,%v want %v", s, got, ok, want)
		}
	}
	keys := tab.keysSorted()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keysSorted not strictly ascending at %d", i)
		}
	}
}
