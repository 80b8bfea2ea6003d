package query

import (
	"math/bits"
	"sort"
)

// Graph is a join graph over relation indexes 0..n-1, stored as per-vertex
// adjacency bitmasks. It is the substrate for connected-subgraph (csg)
// enumeration: optimizers that prune cross products need neighborhoods and
// subset connectivity, and both reduce to a handful of word operations on
// bitmasks.
type Graph struct {
	n   int
	adj []RelSet
}

// NewGraph returns an edgeless graph on n vertices. n must be in
// [0, MaxRels].
func NewGraph(n int) *Graph {
	if n < 0 || n > MaxRels {
		panic("query: graph size out of range")
	}
	return &Graph{n: n, adj: make([]RelSet, n)}
}

// GraphOfSPJ builds the join graph of q: vertices are FROM-list positions,
// edges are the equi-join predicates. Predicates referencing unknown tables
// are ignored (Validate rejects them separately).
func GraphOfSPJ(q *SPJ) *Graph {
	g := NewGraph(q.NumRels())
	for _, p := range q.Joins {
		i := q.TableIndex(p.Left.Table)
		j := q.TableIndex(p.Right.Table)
		if i >= 0 && j >= 0 {
			g.AddEdge(i, j)
		}
	}
	return g
}

// GraphFromAdjacency wraps a precomputed adjacency slice (adj[i] = neighbors
// of vertex i). The slice is not copied; callers must not mutate it
// afterwards.
func GraphFromAdjacency(adj []RelSet) *Graph {
	if len(adj) > MaxRels {
		panic("query: graph size out of range")
	}
	return &Graph{n: len(adj), adj: adj}
}

// AddEdge connects vertices i and j. Self loops are ignored.
func (g *Graph) AddEdge(i, j int) {
	if i == j {
		return
	}
	g.adj[i] = g.adj[i].Add(j)
	g.adj[j] = g.adj[j].Add(i)
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// Adj returns the neighbor set of vertex i.
func (g *Graph) Adj(i int) RelSet { return g.adj[i] }

// Neighborhood returns the vertices adjacent to s but outside it — the csg
// expansion frontier.
func (g *Graph) Neighborhood(s RelSet) RelSet {
	var nb RelSet
	for t := s; t != 0; {
		i := bits.TrailingZeros32(uint32(t))
		nb |= g.adj[i]
		t = t.Without(i)
	}
	return nb &^ s
}

// ConnectedSet reports whether the subgraph induced by s is connected.
// Empty and singleton sets are connected by convention.
func (g *Graph) ConnectedSet(s RelSet) bool {
	if s.Len() <= 1 {
		return true
	}
	visited := RelSet(1) << uint(bits.TrailingZeros32(uint32(s)))
	frontier := visited
	for frontier != 0 {
		var next RelSet
		for t := frontier; t != 0; {
			i := bits.TrailingZeros32(uint32(t))
			next |= g.adj[i]
			t = t.Without(i)
		}
		frontier = next & s &^ visited
		visited |= frontier
	}
	return visited == s
}

// Connected reports whether the whole graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool { return g.ConnectedSet(FullSet(g.n)) }

// Binomial returns C(n, k), the subset count an exhaustive level-k sweep
// visits. With n ≤ MaxRels = 30 the result fits comfortably in int64.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	r := int64(1)
	for i := 1; i <= k; i++ {
		r = r * int64(n-k+i) / int64(i)
	}
	return r
}

// CsgEnum enumerates the connected subsets of a join graph level by level
// (level k = connected subsets of cardinality k), caching each level in
// ascending numeric order. Ascending order is the same canonical order
// SubsetsOfSize walks, so within the connected family an exhaustive and a
// connected sweep visit sets in the identical sequence, so both sweeps break
// cost ties the same way.
//
// Level k is built by expanding every level-(k-1) set with each vertex of
// its neighborhood (BFS-style csg growth): every connected set of size k
// contains a connected subset of size k-1 (remove a leaf of any spanning
// tree), so the expansion is exhaustive over the connected family.
type CsgEnum struct {
	g      *Graph
	levels [][]RelSet // levels[k]: connected subsets of size k, ascending
}

// NewCsgEnum returns an enumerator for g with only the singleton level
// materialized; higher levels are built lazily.
func NewCsgEnum(g *Graph) *CsgEnum {
	e := &CsgEnum{g: g, levels: make([][]RelSet, g.n+1)}
	if g.n >= 1 {
		singles := make([]RelSet, g.n)
		for i := 0; i < g.n; i++ {
			singles[i] = NewRelSet(i)
		}
		e.levels[1] = singles
	}
	return e
}

// Graph returns the underlying join graph.
func (e *CsgEnum) Graph() *Graph { return e.g }

// Level returns the connected subsets of cardinality k in ascending numeric
// order. The returned slice is cached and shared; callers must not modify
// it. Out-of-range k yields nil.
func (e *CsgEnum) Level(k int) []RelSet {
	if k < 1 || k > e.g.n {
		return nil
	}
	e.ensure(k)
	return e.levels[k]
}

func (e *CsgEnum) ensure(k int) {
	for lvl := 2; lvl <= k; lvl++ {
		if e.levels[lvl] != nil {
			continue
		}
		prev := e.levels[lvl-1]
		if len(prev) == 0 {
			e.levels[lvl] = []RelSet{} // expansion of an empty level stays empty
			continue
		}
		seen := make(map[RelSet]struct{}, 2*len(prev))
		for _, s := range prev {
			nb := e.g.Neighborhood(s)
			for t := nb; t != 0; {
				i := bits.TrailingZeros32(uint32(t))
				seen[s.Add(i)] = struct{}{}
				t = t.Without(i)
			}
		}
		next := make([]RelSet, 0, len(seen))
		for s := range seen {
			next = append(next, s)
		}
		sort.Slice(next, func(a, b int) bool { return next[a] < next[b] })
		e.levels[lvl] = next
	}
}
