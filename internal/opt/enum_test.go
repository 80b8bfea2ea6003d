package opt

// Property tests for the pluggable enumeration seam (graph-aware csg
// enumeration vs the exhaustive lattice). The load-bearing claims:
//
//   - a plan whose joins all carry predicates has only connected
//     intermediate subsets, so whenever the exhaustive winner is
//     cross-join-free the connected enumerator finds the *same* winner at
//     the same cost;
//   - the skipped/enumerated counters partition the lattice exactly;
//   - memo sizing follows the enumerator's prediction, and table backings
//     stay unallocated until first use.

import (
	"math"
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

// TestMemoSizingPolicy checks the enumerator-driven dense/sparse split:
// small n stays dense for both enumerators, a large sparse graph under the
// connected enumerator gets a sparse table sized by the csg count, and the
// exhaustive enumerator keeps its dense representation up to the ceiling.
func TestMemoSizingPolicy(t *testing.T) {
	sizing := func(t *testing.T, n int, shape workload.Topology, e Enumeration) memoSizing {
		t.Helper()
		cat, q := randInstance(t, 9500+int64(n), n, shape, false)
		ctx, err := NewContext(cat, q, Options{Enumeration: e})
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		return ctx.sizing
	}

	if sz := sizing(t, 8, workload.Chain, EnumExhaustive); !sz.dense || sz.predict != 1<<8 {
		t.Errorf("exhaustive n=8: sizing %+v, want dense with predict 256", sz)
	}
	if sz := sizing(t, 8, workload.Chain, EnumConnected); !sz.dense {
		t.Errorf("connected n=8 (small): sizing %+v, want dense", sz)
	}
	if sz := sizing(t, 20, workload.Chain, EnumExhaustive); !sz.dense {
		t.Errorf("exhaustive n=20: sizing %+v, want dense (at the ceiling)", sz)
	}
	// A 24-relation chain has 300 connected subsets in a 16M lattice: the
	// connected enumerator must size a sparse table from the csg count.
	if sz := sizing(t, 24, workload.Chain, EnumConnected); sz.dense || sz.predict != 24*25/2 {
		t.Errorf("connected n=24 chain: sizing %+v, want sparse with predict 300", sz)
	}
	// The same 24 relations exhaustively: past the dense ceiling.
	if sz := sizing(t, 24, workload.Chain, EnumExhaustive); sz.dense {
		t.Errorf("exhaustive n=24: sizing %+v, want sparse", sz)
	}
	// A clique's connected family IS the full lattice — dense up to the
	// ceiling even under the connected enumerator.
	if sz := sizing(t, 14, workload.Clique, EnumConnected); !sz.dense {
		t.Errorf("connected n=14 clique: sizing %+v, want dense (lattice is fully connected)", sz)
	}
}

// TestMemoLazyAllocation: table backings must not be allocated before first
// use — the satellite fix for the old always-2^n allocation in NewContext.
func TestMemoLazyAllocation(t *testing.T) {
	dense := newFloatMemo(memoSizing{n: 10, dense: true, predict: 1 << 10})
	if dense.dense != nil {
		t.Fatal("dense floatMemo allocated its backing before first put")
	}
	if _, ok := dense.get(query.NewRelSet(3)); ok {
		t.Fatal("empty memo reported a hit")
	}
	dense.put(query.NewRelSet(3), 42)
	if v, ok := dense.get(query.NewRelSet(3)); !ok || v != 42 {
		t.Fatalf("dense memo get = %v,%v after put", v, ok)
	}

	sparse := newFloatMemo(memoSizing{n: 25, dense: false, predict: 325})
	if sparse.sparse != nil {
		t.Fatal("sparse floatMemo allocated its backing before first put")
	}
	big := query.FullSet(25).Without(3)
	sparse.put(big, 7)
	if v, ok := sparse.get(big); !ok || v != 7 {
		t.Fatalf("sparse memo get = %v,%v after put", v, ok)
	}
	if _, ok := sparse.get(query.FullSet(25)); ok {
		t.Fatal("sparse memo false hit")
	}
}

// TestSparseTabStress: the open-addressed table must survive growth and
// dense key clustering while agreeing with a map oracle.
func TestSparseTabStress(t *testing.T) {
	tab := newSparseTab[int](4)
	oracle := map[query.RelSet]int{}
	// Clustered keys: every connected subset of a 16-chain plus a stride.
	g := query.NewGraph(16)
	for i := 0; i < 15; i++ {
		g.AddEdge(i, i+1)
	}
	e := query.NewCsgEnum(g)
	for d := 1; d <= 16; d++ {
		for _, s := range e.Level(d) {
			tab.put(s, int(s)*3)
			oracle[s] = int(s) * 3
		}
	}
	for i := 0; i < 1000; i += 7 {
		s := query.RelSet(i)
		tab.put(s, i)
		oracle[s] = i
	}
	if tab.len() != len(oracle) {
		t.Fatalf("sparseTab len %d != oracle %d", tab.len(), len(oracle))
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
