package query

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/stats"
)

// ColumnRef names a column of a specific table.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders "table.column".
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// CmpOp is a comparison operator for selection predicates.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	LT
	LE
	GT
	GE
)

// String implements fmt.Stringer.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// JoinPred is an equi-join predicate between columns of two tables.
// Selectivity is the point estimate; SelDist, when non-nil, is the
// distribution of the selectivity used by Algorithm D (paper §3.6: "the
// selectivity of each predicate is a parameter modeled by a distribution").
type JoinPred struct {
	Left, Right ColumnRef
	Selectivity float64
	SelDist     *stats.Dist
}

// String renders "a.x = b.y".
func (p JoinPred) String() string {
	return p.Left.String() + " = " + p.Right.String()
}

// SelectivityDist returns SelDist, or the point at Selectivity when unset.
func (p JoinPred) SelectivityDist() *stats.Dist {
	if p.SelDist != nil {
		return p.SelDist
	}
	return stats.Point(p.Selectivity)
}

// Touches reports whether the predicate references table t.
func (p JoinPred) Touches(t string) bool {
	return p.Left.Table == t || p.Right.Table == t
}

// Selection is a single-table filter predicate: Col Op Value.
type Selection struct {
	Col         ColumnRef
	Op          CmpOp
	Value       float64
	Selectivity float64 // estimated fraction of rows retained
}

// String renders "t.c < 10".
func (s Selection) String() string {
	return fmt.Sprintf("%s %s %g", s.Col, s.Op, s.Value)
}

// SPJ is a SELECT-PROJECT-JOIN query block over named tables.
type SPJ struct {
	// Tables is the FROM list; index positions define the RelSet encoding.
	// Entries are *range names*: either base table names or aliases
	// declared in Aliases. Each entry must be unique, which is how self
	// joins are expressed (FROM t o1, t o2).
	Tables []string
	// Aliases maps a range name in Tables to the base table it ranges
	// over; names absent from the map range over the identically-named
	// base table.
	Aliases map[string]string
	// Joins are the equi-join predicates.
	Joins []JoinPred
	// Selections are single-table filters.
	Selections []Selection
	// Projection lists the output columns; empty means SELECT *.
	Projection []ColumnRef
	// OrderBy, when non-nil, requires the result sorted on the column.
	OrderBy *ColumnRef
	// GroupBy, when non-nil, aggregates the result by the column (COUNT(*)
	// per group). With GroupBy set, OrderBy may only name the same column.
	GroupBy *ColumnRef
}

// NumRels returns the number of relations in the block.
func (q *SPJ) NumRels() int { return len(q.Tables) }

// BaseTable resolves a range name to the stored table it reads.
func (q *SPJ) BaseTable(name string) string {
	if q.Aliases != nil {
		if base, ok := q.Aliases[name]; ok {
			return base
		}
	}
	return name
}

// TableIndex returns the position of the named table in the FROM list,
// or -1.
func (q *SPJ) TableIndex(name string) int {
	for i, t := range q.Tables {
		if t == name {
			return i
		}
	}
	return -1
}

// Validate checks the block against a catalog: every table exists, every
// referenced column exists, selectivities are in range, and the block stays
// within MaxRels.
func (q *SPJ) Validate(cat *catalog.Catalog) error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("query: no tables")
	}
	if len(q.Tables) > MaxRels {
		return fmt.Errorf("query: %d tables exceeds MaxRels %d", len(q.Tables), MaxRels)
	}
	seen := map[string]bool{}
	for _, t := range q.Tables {
		if seen[t] {
			return fmt.Errorf("query: range name %q listed twice (self joins need distinct aliases)", t)
		}
		seen[t] = true
		if !cat.Has(q.BaseTable(t)) {
			return fmt.Errorf("query: unknown table %q", q.BaseTable(t))
		}
	}
	for alias := range q.Aliases {
		if !seen[alias] {
			return fmt.Errorf("query: alias %q not in FROM list", alias)
		}
	}
	checkCol := func(c ColumnRef) error {
		if !seen[c.Table] {
			return fmt.Errorf("query: column %s references table absent from FROM", c)
		}
		tab, err := cat.Table(q.BaseTable(c.Table))
		if err != nil {
			return err
		}
		if tab.Column(c.Column) == nil {
			return fmt.Errorf("query: unknown column %s", c)
		}
		return nil
	}
	for _, j := range q.Joins {
		if err := checkCol(j.Left); err != nil {
			return err
		}
		if err := checkCol(j.Right); err != nil {
			return err
		}
		if j.Left.Table == j.Right.Table {
			return fmt.Errorf("query: join predicate %s references one table", j)
		}
		if j.Selectivity <= 0 || j.Selectivity > 1 {
			return fmt.Errorf("query: join predicate %s has selectivity %v out of (0,1]", j, j.Selectivity)
		}
	}
	for _, s := range q.Selections {
		if err := checkCol(s.Col); err != nil {
			return err
		}
		if s.Selectivity <= 0 || s.Selectivity > 1 {
			return fmt.Errorf("query: selection %s has selectivity %v out of (0,1]", s, s.Selectivity)
		}
	}
	for _, c := range q.Projection {
		if err := checkCol(c); err != nil {
			return err
		}
	}
	if q.OrderBy != nil {
		if err := checkCol(*q.OrderBy); err != nil {
			return err
		}
	}
	if q.GroupBy != nil {
		if err := checkCol(*q.GroupBy); err != nil {
			return err
		}
		if q.OrderBy != nil && *q.OrderBy != *q.GroupBy {
			return fmt.Errorf("query: ORDER BY %s must match GROUP BY %s", q.OrderBy, q.GroupBy)
		}
	}
	return nil
}

// SelectionsOn returns the filters applying to the named table.
func (q *SPJ) SelectionsOn(table string) []Selection {
	var out []Selection
	for _, s := range q.Selections {
		if s.Col.Table == table {
			out = append(out, s)
		}
	}
	return out
}

// LocalSelectivity returns the combined selectivity of all filters on the
// table (independence assumption: product).
func (q *SPJ) LocalSelectivity(table string) float64 {
	sel := 1.0
	for _, s := range q.SelectionsOn(table) {
		sel *= s.Selectivity
	}
	return sel
}

// JoinsBetween returns the predicates connecting any table in set S to
// relation index j. These are the predicates applied when the System R
// step joins A_j into the partial result over S (paper §2.2).
func (q *SPJ) JoinsBetween(s RelSet, j int) []JoinPred {
	var out []JoinPred
	target := q.Tables[j]
	for _, p := range q.Joins {
		if !p.Touches(target) {
			continue
		}
		other := p.Left.Table
		if other == target {
			other = p.Right.Table
		}
		oi := q.TableIndex(other)
		if oi >= 0 && s.Has(oi) {
			out = append(out, p)
		}
	}
	return out
}

// StepSelectivity returns the combined point selectivity of joining A_j
// into the partial result over S: the product over all connecting
// predicates, or 1 (cross product) when none connect. The paper assumes
// "join predicates between every pair of relations ... one can always
// assume the existence of a trivially true predicate".
func (q *SPJ) StepSelectivity(s RelSet, j int) float64 {
	sel := 1.0
	for _, p := range q.JoinsBetween(s, j) {
		sel *= p.Selectivity
	}
	return sel
}

// StepSelectivityDist returns the distribution of the combined selectivity
// of joining A_j into S, assuming independent predicate selectivities
// (paper §3.6). With no connecting predicates it is the point 1.
func (q *SPJ) StepSelectivityDist(s RelSet, j int, budget int) *stats.Dist {
	preds := q.JoinsBetween(s, j)
	d := stats.Point(1)
	for _, p := range preds {
		d = stats.Product(d, p.SelectivityDist(), func(a, b float64) float64 { return a * b })
		if budget > 0 {
			d = stats.Rebucket(d, budget)
		}
	}
	return d
}

// Connected reports whether the join graph restricted to set s is
// connected. Optimizers use this to avoid enumerating cross products unless
// necessary.
func (q *SPJ) Connected(s RelSet) bool {
	members := s.Members()
	if len(members) <= 1 {
		return true
	}
	visited := NewRelSet(members[0])
	frontier := []int{members[0]}
	for len(frontier) > 0 {
		cur := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for _, p := range q.Joins {
			if !p.Touches(q.Tables[cur]) {
				continue
			}
			other := p.Left.Table
			if other == q.Tables[cur] {
				other = p.Right.Table
			}
			oi := q.TableIndex(other)
			if oi < 0 || !s.Has(oi) || visited.Has(oi) {
				continue
			}
			visited = visited.Add(oi)
			frontier = append(frontier, oi)
		}
	}
	return visited == s
}

// String renders the block as pseudo-SQL.
func (q *SPJ) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if len(q.Projection) == 0 {
		b.WriteString("*")
	} else {
		for i, c := range q.Projection {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	b.WriteString(" FROM ")
	froms := make([]string, len(q.Tables))
	for i, t := range q.Tables {
		if base := q.BaseTable(t); base != t {
			froms[i] = base + " " + t
		} else {
			froms[i] = t
		}
	}
	b.WriteString(strings.Join(froms, ", "))
	var preds []string
	for _, j := range q.Joins {
		preds = append(preds, j.String())
	}
	for _, s := range q.Selections {
		preds = append(preds, s.String())
	}
	if len(preds) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(preds, " AND "))
	}
	if q.GroupBy != nil {
		b.WriteString(" GROUP BY ")
		b.WriteString(q.GroupBy.String())
	}
	if q.OrderBy != nil {
		b.WriteString(" ORDER BY ")
		b.WriteString(q.OrderBy.String())
	}
	return b.String()
}
