package plan

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/query"
)

// buildChain interns a left-deep chain over scans in a, one join per scan
// after the first, with a predicate list carved from the arena, and
// finishes it with a sort.
func buildChain(a *Arena, scans []*Scan) Node {
	var cur Node = scans[0]
	for i, s := range scans[1:] {
		j, isNew := a.Join(cur, s, cost.Methods()[i%len(cost.Methods())])
		if isNew {
			j.Preds = a.Preds(1)
			j.Preds[0] = query.JoinPred{
				Left:        query.ColumnRef{Table: scans[i].Table, Column: "id"},
				Right:       query.ColumnRef{Table: s.Table, Column: "fk"},
				Selectivity: 0.01,
			}
			j.Pages, j.Rows = float64(10*(i+1)), float64(100*(i+1))
		}
		cur = j
	}
	st, _ := a.Sort(cur, query.ColumnRef{Table: scans[0].Table, Column: "id"})
	return st
}

func chainScans(prefix string, n int) []*Scan {
	scans := make([]*Scan, n)
	for i := range scans {
		scans[i] = scanNode(prefix+string(rune('a'+i)), i, float64(100*(i+1)))
	}
	return scans
}

// TestDetachSurvivesArenaReset detaches a plan, resets its arena and
// builds a different session in it: the detached copy must still render
// and price exactly as the original did, and the second session must run
// on the recycled slabs without growing them.
func TestDetachSurvivesArenaReset(t *testing.T) {
	a := NewArena()
	orig := buildChain(a, chainScans("r", 300))
	kept := Detach(orig)
	want, wantKey := Explain(orig), orig.Key()
	wantCost := Cost(orig, 500)
	if got := Explain(kept); got != want {
		t.Fatalf("detached plan renders differently:\n%s\nwant:\n%s", got, want)
	}
	if NumJoins(kept) != 299 {
		t.Fatalf("detached plan has %d joins, want 299", NumJoins(kept))
	}
	bytes := a.Bytes()

	a.Reset()
	if a.Size() != 0 || a.Hits() != 0 {
		t.Fatalf("reset arena reports size %d, hits %d", a.Size(), a.Hits())
	}
	buildChain(a, chainScans("s", 300))
	if a.Bytes() != bytes {
		t.Fatalf("second session grew the arena from %d to %d bytes", bytes, a.Bytes())
	}
	if got := Explain(kept); got != want {
		t.Fatalf("detached plan changed after its arena was reused:\n%s\nwant:\n%s", got, want)
	}
	if kept.Key() != wantKey || Cost(kept, 500) != wantCost {
		t.Fatalf("detached plan's key or cost changed after its arena was reused")
	}
}
