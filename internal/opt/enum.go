package opt

import (
	"fmt"
	"math/bits"
	"sort"

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
// buildJoinIndex (the connected enumerator is built on ctx.conn, the
// per-relation adjacency bitmasks) and before the memos are sized.
func (ctx *Context) initEnum() {
	ctx.enumEff = EnumExhaustive
	if ctx.Opts.Enumeration == EnumConnected {
		g := query.GraphFromAdjacency(ctx.conn)
		if g.Connected() {
			ctx.enumEff = EnumConnected
			ctx.csg = query.NewCsgEnum(g)
		}
	}
	ctx.sizing = ctx.computeSizing()
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

// memoSizing is the enumerator-predicted shape of the session's per-subset
// tables: dense 2^n arrays when the predicted live-subset count justifies
// them, open-addressed sparse tables otherwise. All tables stay lazily
// allocated — a Context that never runs the lattice allocates none of them.
type memoSizing struct {
	n       int
	dense   bool
	predict int // predicted live subsets; the sparse capacity hint
}

const (
	// denseMemoMaxRels is the absolute ceiling for dense tables: past it a
	// 2^n array would dwarf the working set regardless of prediction.
	denseMemoMaxRels = 20
	// denseSmallMaxRels always gets dense tables: 2^12 entries is ≤ 32 KiB
	// per table, cheaper than any hashing.
	denseSmallMaxRels = 12
	// sizingCountCap bounds how much of the connected lattice is
	// materialized just to size the tables.
	sizingCountCap = 1 << 18
)

// computeSizing predicts the live-subset count from the effective
// enumerator: 2^n for the exhaustive sweep, the (capped) connected-subgraph
// count for the connected one. Dense tables are kept when the prediction is
// a substantial fraction of 2^n — small queries and dense join graphs —
// so the exhaustive paths keep their exact pre-seam representation. Up to
// denseSmallMaxRels relations the answer is dense whatever the count, so
// the connected lattice is not counted there: its levels are built only as
// deep as the DP climbs, and not at all when the greedy tier serves.
func (ctx *Context) computeSizing() memoSizing {
	n := ctx.Q.NumRels()
	if ctx.enumEff == EnumConnected && n > denseSmallMaxRels {
		pred := ctx.csg.CountAtMost(sizingCountCap)
		dense := n <= denseMemoMaxRels && pred >= (1<<uint(n))/8
		return memoSizing{n: n, dense: dense, predict: pred}
	}
	if n <= denseMemoMaxRels {
		return memoSizing{n: n, dense: true, predict: 1 << uint(n)}
	}
	return memoSizing{n: n, dense: false, predict: sizingCountCap}
}

// sparseTab is an open-addressed hash table keyed by RelSet, the backing of
// every per-subset table when the enumerator predicts a sparse lattice (an
// n=30 chain touches 465 subsets of a 2^30 space). Keys are stored +1 so
// the zero slot means empty; Fibonacci multiplicative hashing spreads the
// clustered bitmask keys; load is kept under ~0.7 by doubling.
type sparseTab[V any] struct {
	keys  []uint32 // key+1; 0 marks an empty slot
	vals  []V
	used  int
	shift uint
}

// newSparseTab returns a table pre-sized for about `hint` entries.
func newSparseTab[V any](hint int) *sparseTab[V] {
	slots := 16
	for slots < hint*3/2 && slots < 1<<16 {
		slots <<= 1
	}
	t := &sparseTab[V]{}
	t.init(slots)
	return t
}

func (t *sparseTab[V]) init(slots int) {
	t.keys = make([]uint32, slots)
	t.vals = make([]V, slots)
	t.used = 0
	t.shift = uint(32 - bits.TrailingZeros(uint(slots)))
}

func (t *sparseTab[V]) slot(k query.RelSet) int {
	return int((uint32(k) + 1) * 2654435769 >> t.shift)
}

func (t *sparseTab[V]) get(k query.RelSet) (V, bool) {
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		kk := t.keys[i]
		if kk == 0 {
			var zero V
			return zero, false
		}
		if kk == uint32(k)+1 {
			return t.vals[i], true
		}
	}
}

func (t *sparseTab[V]) put(k query.RelSet, v V) { *t.ref(k) = v }

// ref returns a pointer to k's value slot, inserting a zero value first if
// absent. The pointer is invalidated by the next insertion (growth may
// rehash), so callers must not retain it.
func (t *sparseTab[V]) ref(k query.RelSet) *V {
	if (t.used+1)*10 >= len(t.keys)*7 {
		t.grow()
	}
	mask := len(t.keys) - 1
	for i := t.slot(k); ; i = (i + 1) & mask {
		kk := t.keys[i]
		if kk == uint32(k)+1 {
			return &t.vals[i]
		}
		if kk == 0 {
			t.keys[i] = uint32(k) + 1
			t.used++
			return &t.vals[i]
		}
	}
}

func (t *sparseTab[V]) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.init(len(oldKeys) * 2)
	mask := len(t.keys) - 1
	for i, kk := range oldKeys {
		if kk == 0 {
			continue
		}
		j := t.slot(query.RelSet(kk - 1))
		for t.keys[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j] = kk
		t.vals[j] = oldVals[i]
		t.used++
	}
}

func (t *sparseTab[V]) len() int { return t.used }

// keysSorted returns the stored keys in ascending order — for consumers
// that need a deterministic iteration (errMemo's order-independent sum).
func (t *sparseTab[V]) keysSorted() []query.RelSet {
	out := make([]query.RelSet, 0, t.used)
	for _, kk := range t.keys {
		if kk != 0 {
			out = append(out, query.RelSet(kk-1))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dpTab is the single-best DP table over lattice nodes, replacing the plain
// 2^n slice: dense when the sizing says so, sparse otherwise. A nil node
// marks an unsolved subset in both representations.
type dpTab struct {
	dense  []dpEntry
	sparse *sparseTab[dpEntry]
}

func (t *dpTab) get(s query.RelSet) dpEntry {
	if t.dense != nil {
		return t.dense[s]
	}
	e, _ := t.sparse.get(s)
	return e
}

func (t *dpTab) put(s query.RelSet, e dpEntry) {
	if t.dense != nil {
		t.dense[s] = e
		return
	}
	t.sparse.put(s, e)
}

// topTab is the top-c list table (Algorithm B), same dense/sparse split.
type topTab struct {
	dense  [][]topEntry
	sparse *sparseTab[[]topEntry]
}

func (t *topTab) get(s query.RelSet) []topEntry {
	if t.dense != nil {
		return t.dense[s]
	}
	l, _ := t.sparse.get(s)
	return l
}

func (t *topTab) put(s query.RelSet, l []topEntry) {
	if t.dense != nil {
		t.dense[s] = l
		return
	}
	t.sparse.put(s, l)
}
