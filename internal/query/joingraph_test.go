package query

import (
	"math/rand"
	"testing"
)

// graphShape builds classic topologies for tests.
func chainGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func starGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, i)
	}
	return g
}

func cycleGraph(n int) *Graph {
	g := chainGraph(n)
	if n > 2 {
		g.AddEdge(n-1, 0)
	}
	return g
}

func cliqueGraph(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func randomGraph(rng *rand.Rand, n int, extraEdges int, connected bool) *Graph {
	g := NewGraph(n)
	if connected {
		for i := 1; i < n; i++ {
			g.AddEdge(rng.Intn(i), i)
		}
	}
	for e := 0; e < extraEdges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		g.AddEdge(i, j)
	}
	return g
}

func TestConnectedSetMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	graphs := []*Graph{
		chainGraph(6), starGraph(6), cycleGraph(6), cliqueGraph(5),
		randomGraph(rng, 7, 3, true), randomGraph(rng, 7, 4, false),
		NewGraph(3), // edgeless: only singletons connected
	}
	for gi, g := range graphs {
		n := g.N()
		for s := RelSet(0); s < FullSet(n)+1 && n > 0; s++ {
			want := bruteConnected(g, s)
			if got := g.ConnectedSet(s); got != want {
				t.Fatalf("graph %d: ConnectedSet(%v) = %v, want %v", gi, s, got, want)
			}
		}
	}
}

// bruteConnected checks connectivity by repeated edge-relaxation.
func bruteConnected(g *Graph, s RelSet) bool {
	m := s.Members()
	if len(m) <= 1 {
		return true
	}
	comp := NewRelSet(m[0])
	for changed := true; changed; {
		changed = false
		for _, i := range m {
			if comp.Has(i) {
				continue
			}
			if g.Adj(i)&comp != 0 {
				comp = comp.Add(i)
				changed = true
			}
		}
	}
	return comp == s
}

func TestCsgEnumMatchesExhaustiveFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	graphs := []*Graph{
		chainGraph(7), starGraph(7), cycleGraph(7), cliqueGraph(6),
		randomGraph(rng, 8, 4, true), randomGraph(rng, 8, 2, false),
	}
	for gi, g := range graphs {
		e := NewCsgEnum(g)
		n := g.N()
		for k := 1; k <= n; k++ {
			var want []RelSet
			SubsetsOfSize(n, k, func(s RelSet) {
				if g.ConnectedSet(s) {
					want = append(want, s)
				}
			})
			got := e.Level(k)
			if len(got) != len(want) {
				t.Fatalf("graph %d level %d: %d connected sets, want %d", gi, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("graph %d level %d index %d: %v, want %v (order must be ascending)", gi, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCsgEnumCounts(t *testing.T) {
	// Closed forms: chain n(n+1)/2 intervals; cycle n(n-1)+1; star
	// 2^(n-1)+n-1; clique 2^n-1.
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"chain10", chainGraph(10), 55},
		{"cycle6", cycleGraph(6), 31},
		{"star10", starGraph(10), 521},
		{"clique5", cliqueGraph(5), 31},
	}
	for _, c := range cases {
		e := NewCsgEnum(c.g)
		got := 0
		for k := 1; k <= c.g.n; k++ {
			got += len(e.Level(k))
		}
		if got != c.want {
			t.Errorf("%s: %d connected subsets, want %d", c.name, got, c.want)
		}
	}
}

func TestNeighborhood(t *testing.T) {
	g := chainGraph(5)
	if nb := g.Neighborhood(NewRelSet(1, 2)); nb != NewRelSet(0, 3) {
		t.Errorf("Neighborhood({1,2}) = %v, want {0,3}", nb)
	}
	if nb := g.Neighborhood(FullSet(5)); nb != 0 {
		t.Errorf("Neighborhood(full) = %v, want empty", nb)
	}
}

func TestGraphOfSPJAndConnected(t *testing.T) {
	q := &SPJ{
		Tables: []string{"a", "b", "c"},
		Joins: []JoinPred{{
			Left:        ColumnRef{Table: "a", Column: "id"},
			Right:       ColumnRef{Table: "b", Column: "fk"},
			Selectivity: 0.1,
		}},
	}
	g := GraphOfSPJ(q)
	if g.Connected() {
		t.Error("graph with isolated c should be disconnected")
	}
	// Graph connectivity must agree with SPJ.Connected on every subset.
	for s := RelSet(1); s <= FullSet(3); s++ {
		if g.ConnectedSet(s) != q.Connected(s) {
			t.Errorf("set %v: graph=%v spj=%v", s, g.ConnectedSet(s), q.Connected(s))
		}
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{30, 15, 155117520}, {5, 6, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}
