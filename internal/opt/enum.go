package opt

import (
	"fmt"

	"repro/internal/query"
)

// Enumeration selects the subset-enumeration policy of the lattice sweeps:
// which relation subsets the dynamic programs visit, level by level. It is
// the pluggable seam between the System R "all subsets" walk and join-graph-
// aware enumeration.
type Enumeration int

const (
	// EnumExhaustive walks every subset of every size (query.SubsetsOfSize,
	// ascending) — the paper's Algorithms B/C lattice, byte-identical to the
	// pre-seam engine. The zero value, so existing Options keep their exact
	// behavior.
	EnumExhaustive Enumeration = iota
	// EnumConnected walks only the connected subgraphs of the join graph
	// (DPconn-style csg enumeration), in the same ascending order restricted
	// to the connected family. Every plan whose joins all carry predicates
	// has only connected intermediate subsets, so for such winners the
	// result is identical to the exhaustive sweep while the lattice shrinks
	// from 2^n to the graph's connected-subgraph count (n(n+1)/2 for
	// chains). Queries with a disconnected join graph — whose plans *must*
	// contain a cross join — automatically fall back to EnumExhaustive.
	EnumConnected
)

// String implements fmt.Stringer.
func (e Enumeration) String() string {
	switch e {
	case EnumExhaustive:
		return "exhaustive"
	case EnumConnected:
		return "connected"
	default:
		return fmt.Sprintf("Enumeration(%d)", int(e))
	}
}

// ParseEnumeration parses the String form ("exhaustive", "connected").
func ParseEnumeration(s string) (Enumeration, error) {
	switch s {
	case "exhaustive", "":
		return EnumExhaustive, nil
	case "connected":
		return EnumConnected, nil
	default:
		return EnumExhaustive, fmt.Errorf("opt: unknown enumeration %q (want exhaustive or connected)", s)
	}
}

// initEnum resolves the session's effective enumerator. It runs after
// buildJoinIndex: the connected enumerator is built on ctx.conn, the
// per-relation adjacency bitmasks.
func (ctx *Context) initEnum() {
	ctx.enumEff = EnumExhaustive
	if ctx.Opts.Enumeration == EnumConnected {
		g := query.GraphFromAdjacency(ctx.conn)
		if g.Connected() {
			ctx.enumEff = EnumConnected
			ctx.csg = query.NewCsgEnum(g)
		}
	}
}

// EffectiveEnumeration returns the enumerator actually driving the session:
// the requested one, except that EnumConnected degrades to EnumExhaustive
// when the join graph is disconnected (some cross join is then mandatory,
// and only the exhaustive lattice contains the disconnected subsets such
// plans are built from).
func (ctx *Context) EffectiveEnumeration() Enumeration { return ctx.enumEff }

// forEachLevel calls f for every level-d subset of the effective
// enumeration, in ascending numeric order, and advances the enumerated/
// skipped counters. Both enumerators visit the connected level-d family in
// the same order, so a run whose exhaustive winner has no cross join
// returns the same plan, cost and trace under either enumerator.
func (ctx *Context) forEachLevel(d int, f func(query.RelSet)) {
	emitted := 0
	ctx.levelSubsets(d, func(s query.RelSet) {
		emitted++
		f(s)
	})
	ctx.countLevel(d, emitted)
}

// levelSubsets calls f for every level-d subset of the effective
// enumeration, in ascending numeric order, without counting the sweep.
func (ctx *Context) levelSubsets(d int, f func(query.RelSet)) {
	if ctx.enumEff == EnumConnected {
		for _, s := range ctx.csg.Level(d) {
			f(s)
		}
		return
	}
	query.SubsetsOfSize(ctx.Q.NumRels(), d, f)
}

// countLevel records one level sweep: emitted subsets, and — under the
// connected enumerator — the disconnected subsets pruned without a visit.
func (ctx *Context) countLevel(d, emitted int) {
	ctx.Count.SubsetsEnumerated += emitted
	if ctx.enumEff == EnumConnected {
		ctx.Count.SubsetsSkipped += int(query.Binomial(ctx.Q.NumRels(), d)) - emitted
	}
}
