// Package plan defines physical query evaluation plans: operator trees of
// scans, binary joins, and sorts, annotated with the size estimates and —
// for LEC optimization — the size *distributions* the optimizer derives.
// A plan here is the object p of the paper's cost function Φ(p, v).
package plan

import (
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/query"
	"repro/internal/stats"
)

// Node is a physical plan operator.
type Node interface {
	// OutPages is the estimated output size in pages (point estimate).
	OutPages() float64
	// OutRows is the estimated output cardinality.
	OutRows() float64
	// OutDist is the distribution of the output size in pages. For nodes
	// built by the classical optimizer this is the point at OutPages; for
	// Algorithm D it carries the propagated distribution of paper §3.6.3.
	OutDist() *stats.Dist
	// OrderedOn returns the column(s) the output is sorted on (an
	// equivalence class of join-equal columns), or nil if unordered.
	OrderedOn() []query.ColumnRef
	// Rels is the set of base relations the subtree covers.
	Rels() query.RelSet
	// Key is a canonical structural signature used for plan deduplication.
	Key() string
	// children returns the inputs, for tree walks.
	children() []Node
}

// ScanMethod distinguishes access paths.
type ScanMethod int

// Access paths.
const (
	// SeqScan reads the whole table.
	SeqScan ScanMethod = iota
	// IndexScan descends a B-tree and reads the qualifying range.
	IndexScan
)

// String implements fmt.Stringer.
func (s ScanMethod) String() string {
	switch s {
	case SeqScan:
		return "seq-scan"
	case IndexScan:
		return "index-scan"
	default:
		return fmt.Sprintf("ScanMethod(%d)", int(s))
	}
}

// Scan is a base-table access with pushed-down filters.
type Scan struct {
	// Table is the range name the scan exposes (a base table name or an
	// alias for self joins).
	Table string
	// Base is the stored table read; empty means Table itself.
	Base   string
	RelIdx int // position in the SPJ FROM list
	Method ScanMethod
	// Index is the index used by an IndexScan; nil for SeqScan.
	Index string
	// IndexClustered and IndexHeight mirror the catalog entry.
	IndexClustered bool
	IndexHeight    int
	// Filters pushed into the scan.
	Filters []query.Selection
	// BasePages / BaseRows are the stored table's size.
	BasePages, BaseRows float64
	// Selectivity is the combined filter selectivity.
	Selectivity float64
	// Pages / Rows are the output estimates after filtering.
	Pages, Rows float64
	// SizeDist is the output size distribution (point when certain).
	SizeDist *stats.Dist
	// SortedOn is non-nil when a clustered index scan yields sorted output.
	SortedOn []query.ColumnRef

	key string // memoized Key
	aid uint32 // arena node id (0 = not yet registered)
}

// OutPages implements Node.
func (s *Scan) OutPages() float64 { return s.Pages }

// OutRows implements Node.
func (s *Scan) OutRows() float64 { return s.Rows }

// OutDist implements Node.
func (s *Scan) OutDist() *stats.Dist {
	if s.SizeDist != nil {
		return s.SizeDist
	}
	return stats.Point(s.Pages)
}

// OrderedOn implements Node.
func (s *Scan) OrderedOn() []query.ColumnRef { return s.SortedOn }

// Rels implements Node.
func (s *Scan) Rels() query.RelSet { return query.NewRelSet(s.RelIdx) }

// Key implements Node. The key is memoized: scans are immutable once the
// optimizer has built them.
func (s *Scan) Key() string {
	if s.key == "" {
		if s.Method == IndexScan {
			s.key = "ix:" + s.Table + "/" + s.Index
		} else {
			s.key = "seq:" + s.Table
		}
	}
	return s.key
}

func (s *Scan) children() []Node { return nil }

// BaseTable returns the stored table the scan reads.
func (s *Scan) BaseTable() string {
	if s.Base != "" {
		return s.Base
	}
	return s.Table
}

// AccessCost returns the I/O cost of executing this scan.
func (s *Scan) AccessCost() float64 {
	if s.Method == IndexScan {
		return cost.IndexScanCost(s.Selectivity, s.BasePages, s.BaseRows, s.IndexHeight, s.IndexClustered)
	}
	return cost.SeqScanCost(s.BasePages)
}

// Join is a binary join node. Left is the outer input.
type Join struct {
	Left, Right Node
	Method      cost.Method
	// Preds are the equi-join predicates applied at this node.
	Preds []query.JoinPred
	// Selectivity is the combined point selectivity of Preds.
	Selectivity float64
	// Pages / Rows are the output estimates.
	Pages, Rows float64
	// SizeDist is the output size distribution (Algorithm D).
	SizeDist *stats.Dist

	key  string       // memoized Key
	rels query.RelSet // memoized Rels (0 = not yet computed; joins cover ≥ 2 relations)
	aid  uint32       // arena node id (0 = not yet registered)
}

// OutPages implements Node.
func (j *Join) OutPages() float64 { return j.Pages }

// OutRows implements Node.
func (j *Join) OutRows() float64 { return j.Rows }

// OutDist implements Node.
func (j *Join) OutDist() *stats.Dist {
	if j.SizeDist != nil {
		return j.SizeDist
	}
	return stats.Point(j.Pages)
}

// OrderedOn implements Node: sort-merge output is ordered on the join
// columns; other methods destroy order.
func (j *Join) OrderedOn() []query.ColumnRef {
	if j.Method != cost.SortMerge || len(j.Preds) == 0 {
		return nil
	}
	cols := make([]query.ColumnRef, 0, 2*len(j.Preds))
	for _, p := range j.Preds {
		cols = append(cols, p.Left, p.Right)
	}
	return cols
}

// Rels implements Node. The covered set is memoized: a join's inputs never
// change after construction, and a join always covers at least two
// relations, so the zero RelSet doubles as the "not yet computed" sentinel.
func (j *Join) Rels() query.RelSet {
	if j.rels == 0 {
		j.rels = j.Left.Rels().Union(j.Right.Rels())
	}
	return j.rels
}

// Key implements Node. Memoized — with interned children the recursive
// string build runs once per distinct subtree instead of once per call.
func (j *Join) Key() string {
	if j.key == "" {
		j.key = fmt.Sprintf("%s(%s,%s)", j.Method, j.Left.Key(), j.Right.Key())
	}
	return j.key
}

func (j *Join) children() []Node { return []Node{j.Left, j.Right} }

// Sort is an explicit sort enforcing an output order.
type Sort struct {
	Input Node
	Key_  query.ColumnRef

	key string // memoized Key
	aid uint32 // arena node id (0 = not yet registered)
}

// OutPages implements Node.
func (s *Sort) OutPages() float64 { return s.Input.OutPages() }

// OutRows implements Node.
func (s *Sort) OutRows() float64 { return s.Input.OutRows() }

// OutDist implements Node.
func (s *Sort) OutDist() *stats.Dist { return s.Input.OutDist() }

// OrderedOn implements Node.
func (s *Sort) OrderedOn() []query.ColumnRef { return []query.ColumnRef{s.Key_} }

// Rels implements Node.
func (s *Sort) Rels() query.RelSet { return s.Input.Rels() }

// Key implements Node. Memoized like Join.Key.
func (s *Sort) Key() string {
	if s.key == "" {
		s.key = fmt.Sprintf("sort[%s](%s)", s.Key_, s.Input.Key())
	}
	return s.key
}

func (s *Sort) children() []Node { return []Node{s.Input} }

// SatisfiesOrder reports whether the node's output order covers col.
func SatisfiesOrder(n Node, col query.ColumnRef) bool {
	for _, c := range n.OrderedOn() {
		if c == col {
			return true
		}
	}
	return false
}

// NumJoins counts join nodes in the tree — the number of execution phases
// in the paper's dynamic-parameter model (§3.5: "if we compute a join over
// n relations, there are n−1 phases").
func NumJoins(n Node) int {
	count := 0
	Walk(n, func(m Node) {
		if _, ok := m.(*Join); ok {
			count++
		}
	})
	return count
}

// Walk visits the tree bottom-up, left to right. It switches on the node
// type rather than ranging over children(), whose slice would cost one
// allocation per inner node on every cost evaluation of a finished plan.
func Walk(n Node, f func(Node)) {
	switch v := n.(type) {
	case *Join:
		Walk(v.Left, f)
		Walk(v.Right, f)
	case *Sort:
		Walk(v.Input, f)
	case *Aggregate:
		Walk(v.Input, f)
	}
	f(n)
}

// Explain renders an indented operator tree with size annotations.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

// ExplainCosts renders the tree like Explain, annotating each operator with
// its expected cost contribution under the memory distribution — an
// EXPLAIN-ANALYZE-style view of where the expected I/O goes.
func ExplainCosts(n Node, dm *stats.Dist) string {
	costs := map[Node]float64{}
	Walk(n, func(m Node) {
		switch v := m.(type) {
		case *Scan:
			costs[m] = v.AccessCost()
		case *Join:
			costs[m] = cost.ExpJoinCostMem(v.Method, v.Left.OutPages(), v.Right.OutPages(), dm)
		case *Sort:
			if !SatisfiesOrder(v.Input, v.Key_) {
				pages := v.Input.OutPages()
				costs[m] = dm.Expect(func(mem float64) float64 { return cost.SortCost(pages, mem) })
			}
		case *Aggregate:
			costs[m] = dm.Expect(v.AggCost)
		}
	})
	var b strings.Builder
	var rec func(m Node, depth int)
	rec = func(m Node, depth int) {
		var line strings.Builder
		explain(&line, m, 0)
		first, _, _ := strings.Cut(line.String(), "\n")
		fmt.Fprintf(&b, "%s%s  [E[cost] %.0f]\n", strings.Repeat("  ", depth), first, costs[m])
		for _, c := range m.children() {
			rec(c, depth+1)
		}
	}
	rec(n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	indent := strings.Repeat("  ", depth)
	switch v := n.(type) {
	case *Scan:
		fmt.Fprintf(b, "%s%s %s", indent, v.Method, v.Table)
		if v.Method == IndexScan {
			fmt.Fprintf(b, " using %s", v.Index)
		}
		fmt.Fprintf(b, "  (%.0f pages, %.0f rows", v.Pages, v.Rows)
		if len(v.Filters) > 0 {
			b.WriteString(", filtered")
		}
		b.WriteString(")\n")
	case *Join:
		fmt.Fprintf(b, "%s%s join", indent, v.Method)
		if len(v.Preds) > 0 {
			var preds []string
			for _, p := range v.Preds {
				preds = append(preds, p.String())
			}
			fmt.Fprintf(b, " on %s", strings.Join(preds, " AND "))
		}
		fmt.Fprintf(b, "  (%.0f pages, %.0f rows)\n", v.Pages, v.Rows)
		explain(b, v.Left, depth+1)
		explain(b, v.Right, depth+1)
	case *Sort:
		fmt.Fprintf(b, "%ssort by %s  (%.0f pages)\n", indent, v.Key_, v.OutPages())
		explain(b, v.Input, depth+1)
	case *Aggregate:
		fmt.Fprintf(b, "%s%s by %s  (%.0f groups, %.0f pages)\n", indent, v.Method, v.GroupKey, v.Groups, v.OutPages())
		explain(b, v.Input, depth+1)
	default:
		fmt.Fprintf(b, "%s%T\n", indent, n)
	}
}
